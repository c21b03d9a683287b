// Package chaos is the fault-injection harness of the robustness test
// suite: it wraps any harness.Engine and injects one failure mode per
// run — a panic, a wall-clock stall, event-budget exhaustion, context
// cancellation, or a corrupted on-disk graph container.
//
// The point of the package is the contract it lets tests state: every
// injected fault must surface as a typed, matchable error on its own
// sweep cell (errors.Is against the sentinel for that fault), sibling
// cells must complete untouched, no fault may panic the sweep itself
// (the pool isolates injected panics), and cells without an injected
// fault must stay bit-identical to an unfaulted run.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"nova/graph"
	"nova/internal/harness"
	"nova/internal/sim"
)

// Fault selects the failure mode an Engine injects.
type Fault int

const (
	// None passes the workload through untouched.
	None Fault = iota
	// Panic panics inside RunWorkload with ErrInjectedPanic, exercising
	// the pool's panic isolation and typed-capture path.
	Panic
	// Stall runs a private simulation whose handler blocks without
	// advancing simulated time, so the wall-clock watchdog must trip with
	// sim.ErrStalled.
	Stall
	// Budget caps the cell's event budget far below what the workload
	// needs, forcing a sim.ErrMaxEvents partial report. Only engines that
	// honor Workload.MaxEvents (the NOVA adapter) exhaust it.
	Budget
	// Cancel cancels the cell's context (immediately, or after
	// CancelAfter), forcing a context.Canceled partial report.
	Cancel
	// Corrupt writes the workload graph to a container file, flips one
	// seed-derived bit, and requires the loader to reject it with a typed
	// graph.ErrCorrupt.
	Corrupt
)

// String names the fault for fingerprints and test logs.
func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Stall:
		return "stall"
	case Budget:
		return "budget"
	case Cancel:
		return "cancel"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("fault(%d)", int(f))
	}
}

// ErrInjectedPanic is the payload of the Panic fault; the pool's panic
// capture must keep it matchable through errors.Is.
var ErrInjectedPanic = errors.New("chaos: injected panic")

// ErrCorruptionUndetected reports the one failure the Corrupt fault can
// itself produce: the loader accepted a container with a flipped bit.
var ErrCorruptionUndetected = errors.New("chaos: corrupted container loaded without error")

// DefaultBudget is the Budget fault's event cap — far below any real
// workload, but enough for the simulation to produce nonzero stats.
const DefaultBudget = 64

// DefaultStallInterval is the Stall fault's watchdog interval.
const DefaultStallInterval = 25 * time.Millisecond

// Engine wraps an inner harness.Engine and injects Fault on every
// RunWorkload call. The zero Fault (None) passes through, so a chaos
// grid can mix faulted and unfaulted cells freely.
type Engine struct {
	// Inner is the wrapped backend.
	Inner harness.Engine
	// Fault selects the injected failure mode.
	Fault Fault
	// Budget overrides the Budget fault's event cap (0 = DefaultBudget).
	Budget uint64
	// CancelAfter delays the Cancel fault (0 = cancel before the run).
	CancelAfter time.Duration
	// StallInterval overrides the Stall fault's watchdog interval
	// (0 = DefaultStallInterval).
	StallInterval time.Duration
	// Dir is where the Corrupt fault writes its container
	// (empty = os.TempDir()).
	Dir string
	// Seed derives which bit the Corrupt fault flips, so a failing chaos
	// round reproduces from its logged seed.
	Seed int64
}

// Name returns the inner engine's name.
func (e *Engine) Name() string { return e.Inner.Name() }

// Fingerprint appends the injected fault to the inner fingerprint, so a
// faulted cell's report is never comparable to a clean one.
func (e *Engine) Fingerprint() string {
	return e.Inner.Fingerprint() + "+chaos:" + e.Fault.String()
}

// RunWorkload injects the configured fault around (or instead of) the
// inner engine's run. See the Fault constants for what each mode returns.
func (e *Engine) RunWorkload(ctx context.Context, w harness.Workload) (*harness.Report, error) {
	switch e.Fault {
	case Panic:
		panic(ErrInjectedPanic)
	case Stall:
		return nil, e.stall()
	case Budget:
		w.MaxEvents = e.Budget
		if w.MaxEvents == 0 {
			w.MaxEvents = DefaultBudget
		}
		return e.Inner.RunWorkload(ctx, w)
	case Cancel:
		child, cancel := context.WithCancel(ctx)
		if e.CancelAfter > 0 {
			defer time.AfterFunc(e.CancelAfter, cancel).Stop()
		} else {
			cancel()
		}
		defer cancel()
		return e.Inner.RunWorkload(child, w)
	case Corrupt:
		return nil, e.corrupt(w.G)
	default:
		return e.Inner.RunWorkload(ctx, w)
	}
}

// stall runs a private simulation whose only handler burns wall-clock
// time without advancing simulated time or executing further events. The
// watchdog sees no beats across its interval and trips sim.ErrStalled;
// the handler notices the tripped interrupt and unblocks, so the stalled
// goroutine is reclaimed rather than leaked.
func (e *Engine) stall() error {
	interval := e.StallInterval
	if interval <= 0 {
		interval = DefaultStallInterval
	}
	eng := sim.NewEngine()
	intr := sim.NewInterrupt()
	// pollEvery=1 makes the engine surface the trip on the very next
	// event, keeping the fault deterministic in shape: run, trip, return.
	eng.SetInterrupt(intr, 1)
	stopDog := sim.StartWatchdog(intr, interval)
	defer stopDog()
	eng.Schedule(0, sim.HandlerFunc(func() {
		deadline := time.Now().Add(10 * interval)
		for intr.Err() == nil && time.Now().Before(deadline) {
			time.Sleep(interval / 4)
		}
	}))
	// A second event so the engine visits the interrupt poll after the
	// stalled handler finally returns.
	eng.Schedule(1, sim.HandlerFunc(func() {}))
	err := eng.Run(sim.MaxTicks, 0)
	if err == nil {
		return fmt.Errorf("chaos: stall fault completed without tripping the watchdog")
	}
	return err
}

// corrupt round-trips g through the versioned container with one
// seed-derived bit flipped and returns the loader's typed rejection.
func (e *Engine) corrupt(g *graph.CSR) error {
	dir := e.Dir
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "chaos-*.csr")
	if err != nil {
		return fmt.Errorf("chaos: corrupt fault: %w", err)
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	if err := graph.WriteCSRFile(path, g); err != nil {
		return fmt.Errorf("chaos: corrupt fault: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("chaos: corrupt fault: %w", err)
	}
	rng := rand.New(rand.NewSource(e.Seed))
	bit := rng.Intn(len(data) * 8)
	data[bit/8] ^= 1 << (bit % 8)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("chaos: corrupt fault: %w", err)
	}
	if _, err := graph.ReadCSRFile(path); err != nil {
		return err // the typed graph.ErrCorrupt rejection — the expected outcome
	}
	return fmt.Errorf("%w: %s bit %d (seed %d)",
		ErrCorruptionUndetected, filepath.Base(path), bit, e.Seed)
}

var _ harness.Engine = (*Engine)(nil)
