package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStalled reports a watchdog trip: wall-clock time elapsed with no
// simulation progress (no events executed, no tick advance).
var ErrStalled = errors.New("sim: stalled")

// DefaultPollEvents is the default cancellation-poll stride: the kernel
// checks the interrupt once per this many executed events. A NOVA cell
// spends ~90–110 ns of host time per event (sim.ns_per_event on the
// repository benchmark's three sim workloads, 2-vCPU Xeon VM), so a poll
// comes every ~0.7–0.9 ms of wall time, which bounds how long a cancelled
// run keeps going. One atomic load per 8192 events costs the hot loop
// nothing measurable.
const DefaultPollEvents = 8192

// StopReason classifies why a run stopped early. The empty string means
// the run completed normally (or failed for a non-cooperative reason).
type StopReason string

const (
	StopCancelled StopReason = "cancelled"
	StopDeadline  StopReason = "deadline"
	StopBudget    StopReason = "budget"
	StopStalled   StopReason = "stalled"
)

// ReasonFor maps an error returned by a run to its StopReason. Errors that
// are not a cooperative stop (deadlock, config errors, ...) map to "".
func ReasonFor(err error) StopReason {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.Canceled):
		return StopCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return StopDeadline
	case errors.Is(err, ErrMaxEvents):
		return StopBudget
	case errors.Is(err, ErrStalled):
		return StopStalled
	}
	return ""
}

// Interrupt is the cooperative stop channel between a running simulation
// and the outside world (context watchers, watchdogs, signal handlers).
// The simulation side calls Pulse/Err on its poll stride; any other
// goroutine may Trip it. The first Trip wins; later ones are ignored.
//
// All state is atomic: tripping never blocks the simulation, and polling
// is a single pointer load on the fast path, so attaching an Interrupt
// cannot perturb simulation results — only when the run stops.
type Interrupt struct {
	err   atomic.Pointer[error]
	beats atomic.Uint64
}

// NewInterrupt returns an untripped Interrupt.
func NewInterrupt() *Interrupt { return &Interrupt{} }

// Trip requests a stop with the given cause. Only the first call takes
// effect. A nil err is ignored.
func (i *Interrupt) Trip(err error) {
	if err == nil {
		return
	}
	i.err.CompareAndSwap(nil, &err)
}

// Err returns the trip cause, or nil if the Interrupt has not tripped.
func (i *Interrupt) Err() error {
	if p := i.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Pulse records a liveness heartbeat. The simulation calls it on every
// poll; watchdogs compare Beats across a wall-clock interval to detect
// stalls.
func (i *Interrupt) Pulse() { i.beats.Add(1) }

// Beats returns the number of Pulses observed so far.
func (i *Interrupt) Beats() uint64 { return i.beats.Load() }

// WatchContext trips the Interrupt when ctx is cancelled, translating the
// context's error (Canceled or DeadlineExceeded) into the trip cause. It
// returns a stop function that must be called to release the watcher; stop
// is idempotent. An already-cancelled context trips synchronously, so an
// immediate cancellation is observed deterministically by the very first
// poll.
func WatchContext(ctx context.Context, i *Interrupt) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if err := ctx.Err(); err != nil {
		i.Trip(err)
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			i.Trip(ctx.Err())
		case <-done:
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// StartWatchdog trips the Interrupt with ErrStalled when no Pulse arrives
// across a full interval — i.e. the simulation executed no events and
// advanced no barrier for that long. It returns a stop function that must
// be called to release the watchdog; stop is idempotent. A non-positive
// interval disables the watchdog entirely.
func StartWatchdog(i *Interrupt, interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		last := i.Beats()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				now := i.Beats()
				if now == last {
					i.Trip(fmt.Errorf("%w: no simulation progress for %v (watchdog)", ErrStalled, interval))
					return
				}
				last = now
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
