// Conservative time-window parallel simulation over multiple engines.
//
// A Cluster runs one Engine per shard (in NOVA, one shard per GPN). The
// shards free-run in lockstep windows [W, W+λ-1], where W is the minimum
// pending-event tick across all shards and λ is the cluster's lookahead:
// the minimum latency any cross-shard interaction can have. As long as
// every cross-shard message is buffered at send time and delivered at a
// window barrier — never directly into another shard's queue — no event
// scheduled inside a window can affect another shard within that same
// window, so the shards may execute concurrently without violating
// causality. This is classic null-message-free conservative PDES with a
// global window barrier in place of per-link null messages.
//
// Determinism rule: everything that happens between windows (the exchange
// callback) runs single-threaded on the coordinating goroutine and must
// process shards in a fixed order (ascending shard index). Within a
// window, shards only touch their own state. Under those two rules the
// sequence of events each engine executes is a pure function of the
// initial state — independent of the worker count — so results are
// bit-identical at every -shards setting.
package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ExchangeFunc delivers the cross-shard messages buffered during the
// window that just closed, scheduling them on their destination engines.
// It runs on the coordinating goroutine with all shards stopped, and must
// iterate source shards in a fixed order (the determinism rule). It
// returns the number of messages delivered; the cluster terminates when
// all queues are empty and an exchange delivers nothing.
type ExchangeFunc func() (int, error)

// Cluster coordinates a set of engines under conservative time windows.
type Cluster struct {
	engines   []*Engine
	lookahead Ticks
	workers   int

	// budgets[i] is the Executed() count at which engine i must stop in
	// the current window; 0 means unlimited. Written by the coordinator
	// before the window signal, read by workers after it (the channel
	// send is the happens-before edge).
	budgets []uint64
	// errs[i] is engine i's result for the current window. Workers own
	// disjoint index sets, so no two goroutines write the same slot.
	errs []error

	// intr, when attached, is checked at every window barrier (and the
	// top of the single-engine fast path) in addition to the per-engine
	// event-stride polls, so short runs that never reach the poll stride
	// still observe cancellation promptly.
	intr *Interrupt

	startOnce sync.Once
	closeOnce sync.Once
	work      []chan Ticks
	done      chan struct{}

	windows     uint64
	windowSecs  float64
	barrierSecs float64
}

// NewCluster builds a cluster over the given engines. lookahead is the
// minimum cross-shard latency in ticks and must be positive: a zero (or
// negative-cast) lookahead would make the windows empty and the
// synchronization unsound, so it is rejected at construction. workers is
// the number of goroutines that execute windows; it is clamped to
// [1, len(engines)].
func NewCluster(engines []*Engine, lookahead Ticks, workers int) (*Cluster, error) {
	if len(engines) == 0 {
		return nil, errors.New("sim: cluster needs at least one engine")
	}
	for i, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("sim: cluster engine %d is nil", i)
		}
	}
	// The upper bound catches negative values cast into Ticks (uint64):
	// no real latency is anywhere near half the tick range.
	if lookahead == 0 || lookahead > MaxTicks/2 {
		return nil, fmt.Errorf("sim: cluster lookahead %d out of range; need a positive cross-shard latency", lookahead)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(engines) {
		workers = len(engines)
	}
	return &Cluster{
		engines:   engines,
		lookahead: lookahead,
		workers:   workers,
		budgets:   make([]uint64, len(engines)),
		errs:      make([]error, len(engines)),
	}, nil
}

// SetInterrupt attaches a cooperative-stop interrupt to the cluster and
// every engine in it (each polling once per pollEvery executed events;
// 0 selects DefaultPollEvents). The cluster additionally pulses and checks
// the interrupt at every window barrier, which doubles as the liveness
// heartbeat for stall watchdogs.
func (c *Cluster) SetInterrupt(i *Interrupt, pollEvery uint64) {
	c.intr = i
	for _, e := range c.engines {
		e.SetInterrupt(i, pollEvery)
	}
}

// checkInterrupt pulses the attached interrupt and returns its trip cause,
// if any. Called once per barrier/iteration on the coordinator goroutine.
func (c *Cluster) checkInterrupt() error {
	if c.intr == nil {
		return nil
	}
	c.intr.Pulse()
	return c.intr.Err()
}

// Workers returns the effective worker-goroutine count.
func (c *Cluster) Workers() int { return c.workers }

// Windows returns the number of time windows executed so far.
func (c *Cluster) Windows() uint64 { return c.windows }

// WindowSeconds returns wall-clock time spent inside windows (shards
// executing events, possibly in parallel).
func (c *Cluster) WindowSeconds() float64 { return c.windowSecs }

// BarrierSeconds returns wall-clock time spent at window barriers
// (computing the next window and exchanging cross-shard messages).
func (c *Cluster) BarrierSeconds() float64 { return c.barrierSecs }

// Executed returns the total events executed across all engines.
func (c *Cluster) Executed() uint64 {
	var n uint64
	for _, e := range c.engines {
		n += e.Executed()
	}
	return n
}

// Now returns the maximum current time across all engines.
func (c *Cluster) Now() Ticks {
	var t Ticks
	for _, e := range c.engines {
		if n := e.Now(); n > t {
			t = n
		}
	}
	return t
}

// Run executes windows until every engine is quiescent and an exchange
// delivers nothing, the total event budget is exhausted (ErrMaxEvents),
// or a shard or the exchange reports an error. budget 0 means unlimited.
//
// The single-engine case bypasses the window machinery entirely: the one
// engine free-runs to quiescence between exchanges, which is exactly the
// pre-cluster sequential kernel path (same events, same order, same
// allocation-free loop).
func (c *Cluster) Run(budget uint64, exchange ExchangeFunc) error {
	if len(c.engines) == 1 {
		e := c.engines[0]
		for {
			if err := c.checkInterrupt(); err != nil {
				return err
			}
			if err := e.Run(MaxTicks, budget); err != nil {
				return err
			}
			n, err := exchange()
			if err != nil {
				return err
			}
			if n == 0 && e.Pending() == 0 {
				return nil
			}
		}
	}
	for {
		if err := c.checkInterrupt(); err != nil {
			return err
		}
		w, ok := c.nextWindow()
		if !ok {
			// All queues empty: one final exchange may still inject
			// buffered messages; if it does not, we are quiescent.
			t0 := time.Now()
			n, err := exchange()
			c.barrierSecs += time.Since(t0).Seconds()
			if err != nil {
				return err
			}
			if n == 0 {
				return nil
			}
			continue
		}
		if budget > 0 {
			total := c.Executed()
			if total >= budget {
				return ErrMaxEvents
			}
			rem := budget - total
			for i, e := range c.engines {
				c.budgets[i] = e.Executed() + rem
			}
		} else {
			for i := range c.budgets {
				c.budgets[i] = 0
			}
		}
		horizon := w + c.lookahead - 1
		if horizon < w { // overflow
			horizon = MaxTicks
		}
		t0 := time.Now()
		c.runWindow(horizon)
		c.windowSecs += time.Since(t0).Seconds()
		c.windows++
		// First error by shard index, so failure reporting is as
		// deterministic as success.
		for _, err := range c.errs {
			if err != nil {
				return err
			}
		}
		t1 := time.Now()
		_, err := exchange()
		c.barrierSecs += time.Since(t1).Seconds()
		if err != nil {
			return err
		}
	}
}

// nextWindow returns the earliest pending tick across all engines.
func (c *Cluster) nextWindow() (Ticks, bool) {
	var w Ticks
	ok := false
	for _, e := range c.engines {
		if t, has := e.NextWhen(); has && (!ok || t < w) {
			w, ok = t, true
		}
	}
	return w, ok
}

// runWindow executes one window on all engines. With one worker it stays
// on the calling goroutine; otherwise persistent workers each own a
// static subset of engines (engine i belongs to worker i % workers).
func (c *Cluster) runWindow(horizon Ticks) {
	if c.workers <= 1 {
		for i, e := range c.engines {
			c.errs[i] = e.Run(horizon, c.budgets[i])
		}
		return
	}
	c.startWorkers()
	for _, ch := range c.work {
		ch <- horizon
	}
	for range c.work {
		<-c.done
	}
}

func (c *Cluster) startWorkers() {
	c.startOnce.Do(func() {
		c.work = make([]chan Ticks, c.workers)
		c.done = make(chan struct{}, c.workers)
		for wi := 0; wi < c.workers; wi++ {
			ch := make(chan Ticks)
			c.work[wi] = ch
			go func(wi int, ch chan Ticks) {
				for horizon := range ch {
					for i := wi; i < len(c.engines); i += c.workers {
						c.errs[i] = c.engines[i].Run(horizon, c.budgets[i])
					}
					c.done <- struct{}{}
				}
			}(wi, ch)
		}
	})
}

// Close shuts down the worker goroutines. Safe to call multiple times and
// on clusters that never started workers.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		for _, ch := range c.work {
			close(ch)
		}
	})
}
