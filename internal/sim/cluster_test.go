package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestNewClusterRejectsBadLookahead(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	if _, err := NewCluster(engines, 0, 1); err == nil {
		t.Fatal("zero lookahead accepted; want construction error")
	}
	// A negative latency cast into Ticks wraps to a huge value; the
	// constructor must treat it as invalid, not as a 2^63-tick window.
	negLatency := int64(-5)
	neg := Ticks(negLatency)
	if _, err := NewCluster(engines, neg, 1); err == nil {
		t.Fatal("negative-cast lookahead accepted; want construction error")
	}
	if _, err := NewCluster(nil, 10, 1); err == nil {
		t.Fatal("empty engine set accepted; want construction error")
	}
	if _, err := NewCluster([]*Engine{NewEngine(), nil}, 10, 1); err == nil {
		t.Fatal("nil engine accepted; want construction error")
	}
}

func TestNewClusterClampsWorkers(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	for want, workers := range map[int]int{1: 0, 2: 8} {
		c, err := NewCluster(engines, 10, workers)
		if err != nil {
			t.Fatal(err)
		}
		if c.Workers() != want {
			t.Errorf("workers=%d clamped to %d, want %d", workers, c.Workers(), want)
		}
	}
}

// mailbox is a minimal cross-shard exchange: messages buffered at send
// time, delivered at barriers in ascending source order, rejecting any
// delivery that would land in the destination's past.
type mailbox struct {
	engines []*Engine
	// pending[src] holds (when, dst) pairs buffered during the window.
	pending [][]mbMsg
	fired   []int
	// firedAt[dst] is the tick of dst's latest delivery.
	firedAt []Ticks
}

type mbMsg struct {
	when Ticks
	dst  int
}

func newMailbox(engines []*Engine) *mailbox {
	return &mailbox{engines: engines, pending: make([][]mbMsg, len(engines)),
		fired: make([]int, len(engines)), firedAt: make([]Ticks, len(engines))}
}

func (m *mailbox) send(src int, msg mbMsg) { m.pending[src] = append(m.pending[src], msg) }

func (m *mailbox) exchange() (int, error) {
	n := 0
	for src := range m.pending {
		for _, msg := range m.pending[src] {
			e := m.engines[msg.dst]
			if msg.when < e.Now() {
				return n, fmt.Errorf("mailbox: delivery in destination past (shard %d now=%d)", msg.dst, e.Now())
			}
			dst := msg.dst
			e.ScheduleAt(msg.when, HandlerFunc(func() {
				m.fired[dst]++
				m.firedAt[dst] = e.Now()
			}))
			n++
		}
		m.pending[src] = m.pending[src][:0]
	}
	return n, nil
}

// TestBarrierTickEvent schedules a cross-shard message landing exactly on
// the first tick after the window [0, lookahead-1] — the barrier tick —
// while the destination shard holds work past it. The message must fire
// exactly once, at its own tick, in the following window; the destination
// must not run past the barrier first. With a lookahead of 1 the first
// window's horizon is tick 0.
func TestBarrierTickEvent(t *testing.T) {
	for _, lookahead := range []Ticks{1, 10} {
		t.Run(fmt.Sprintf("lookahead=%d", lookahead), func(t *testing.T) {
			engines := []*Engine{NewEngine(), NewEngine()}
			mb := newMailbox(engines)
			engines[0].ScheduleAt(0, HandlerFunc(func() {
				// Send from tick 0 with exactly the minimum latency:
				// arrival at tick lookahead is the first tick outside
				// the current window.
				mb.send(0, mbMsg{when: lookahead, dst: 1})
			}))
			engines[1].ScheduleAt(lookahead+4, HandlerFunc(func() {}))
			c, err := NewCluster(engines, lookahead, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			count := 0
			exchange := func() (int, error) {
				n, err := mb.exchange()
				count += n
				return n, err
			}
			if err := c.Run(0, exchange); err != nil {
				t.Fatal(err)
			}
			if mb.fired[1] != 1 {
				t.Fatalf("barrier-tick event fired %d times, want exactly 1", mb.fired[1])
			}
			if mb.firedAt[1] != lookahead {
				t.Errorf("barrier-tick event fired at %d, want %d", mb.firedAt[1], lookahead)
			}
			if count != 1 {
				t.Errorf("exchange delivered %d messages, want 1", count)
			}
		})
	}
}

// TestExchangePastDeliveryError drives a message whose arrival tick is
// behind the destination shard — the exchange must surface an error, and
// the cluster must return it rather than silently reordering time.
func TestExchangePastDeliveryError(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	mb := newMailbox(engines)
	// Both shards have work through tick 50, so the destination's clock is
	// far past the bogus arrival tick when the barrier delivers it.
	for i, e := range engines {
		i := i
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < 50 {
				engines[i].Schedule(1, HandlerFunc(tick))
			}
		}
		e.Schedule(0, HandlerFunc(tick))
	}
	engines[0].ScheduleAt(3, HandlerFunc(func() {
		mb.send(0, mbMsg{when: 1, dst: 1}) // arrival before the window even closes
	}))
	c, err := NewCluster(engines, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(0, mb.exchange)
	if err == nil {
		t.Fatal("past-tick delivery ran to completion; want an error from the exchange")
	}
	if !strings.Contains(err.Error(), "past") {
		t.Errorf("error = %v, want the mailbox's past-delivery error", err)
	}
}

// clusterPingPong builds a w-worker cluster where every shard mails its
// right neighbor each window, and returns the per-shard fired counts and
// executed totals after quiescence.
func clusterPingPong(t *testing.T, shards, workers, rounds int) ([]int, []uint64, Ticks) {
	t.Helper()
	const lookahead = Ticks(7)
	engines := make([]*Engine, shards)
	for i := range engines {
		engines[i] = NewEngine()
	}
	mb := newMailbox(engines)
	for i := range engines {
		i := i
		n := 0
		var tick func()
		tick = func() {
			n++
			mb.send(i, mbMsg{when: engines[i].Now() + lookahead, dst: (i + 1) % shards})
			if n < rounds {
				engines[i].Schedule(3, HandlerFunc(tick))
			}
		}
		engines[i].ScheduleAt(Ticks(i), HandlerFunc(tick))
	}
	c, err := NewCluster(engines, lookahead, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(0, mb.exchange); err != nil {
		t.Fatal(err)
	}
	executed := make([]uint64, shards)
	for i, e := range engines {
		executed[i] = e.Executed()
	}
	return mb.fired, executed, c.Now()
}

// TestClusterDeterministicAcrossWorkers runs the same cross-shard
// workload at 1, 2, and 4 workers: per-shard delivery counts, executed
// totals, and the final clock must be bit-identical, since the worker
// count only changes which goroutine runs a window, never its contents.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	baseFired, baseExec, baseNow := clusterPingPong(t, 4, 1, 25)
	for _, workers := range []int{2, 4} {
		fired, exec, now := clusterPingPong(t, 4, workers, 25)
		for i := range fired {
			if fired[i] != baseFired[i] {
				t.Errorf("workers=%d shard %d fired %d, want %d", workers, i, fired[i], baseFired[i])
			}
			if exec[i] != baseExec[i] {
				t.Errorf("workers=%d shard %d executed %d, want %d", workers, i, exec[i], baseExec[i])
			}
		}
		if now != baseNow {
			t.Errorf("workers=%d final now %d, want %d", workers, now, baseNow)
		}
	}
}

// TestClusterBudget exhausts a multi-shard cluster's shared event budget
// and expects ErrMaxEvents, matching the single-engine kernel's contract.
func TestClusterBudget(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	for _, e := range engines {
		e := e
		var tick func()
		tick = func() { e.Schedule(1, HandlerFunc(tick)) } // runs forever
		e.ScheduleAt(0, HandlerFunc(tick))
	}
	c, err := NewCluster(engines, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(100, func() (int, error) { return 0, nil })
	if !errors.Is(err, ErrMaxEvents) {
		t.Fatalf("err = %v, want ErrMaxEvents", err)
	}
	if got := c.Executed(); got < 100 {
		t.Errorf("executed %d events before stopping, want >= budget 100", got)
	}
}
