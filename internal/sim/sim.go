// Package sim provides a deterministic discrete-event simulation kernel.
//
// It plays the role gem5's event queue plays in the paper's methodology:
// hardware components schedule callbacks at future ticks (1 tick = 1 clock
// cycle at the system frequency) and the engine executes them in time order.
// Ties are broken by insertion order, which makes every simulation fully
// deterministic for a given seed and schedule sequence.
//
// The pending queue has two tiers, because simulated components schedule
// almost everything a few to a few thousand ticks ahead:
//
//   - The near tier is a time wheel of wheelSpan one-tick buckets covering
//     ticks [base, base+wheelSpan). Each bucket is a FIFO list threaded
//     through Event.next, and a two-level occupancy bitmap finds the
//     earliest non-empty bucket in O(1). Schedule and pop are O(1).
//   - The far tier is an intrusive 4-ary min-heap over *Event holding the
//     events due at or after base+wheelSpan. As the earliest pending tick
//     advances base, the far events that come into range move into the
//     wheel in heap order.
//
// Every event carries (when, seq), with seq assigned at schedule time, and
// pop order is exactly ascending (when, seq) — the order of a single heap.
// A bucket stays sorted by seq because every way into it preserves that:
// a fresh schedule takes the largest seq so far and appends; a move from
// the far tier pops in (when, seq) order into buckets that have only just
// come into range, and were therefore empty; and a Reschedule of a pending
// event keeps its seq and is inserted at its rank.
//
// The kernel is built to be allocation-free on its hot path:
//
//   - Callbacks are a one-method Handler interface instead of func(), so a
//     component can implement Fire on a long-lived state-machine struct and
//     reuse one pre-allocated Event (NewEvent + Reschedule) forever.
//   - One-shot Schedule/ScheduleAt calls draw their Event from a free list
//     on the Engine and return it there after firing, so steady-state
//     scheduling does not touch the garbage collector at all.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Ticks is a point in simulated time, measured in clock cycles.
type Ticks uint64

// MaxTicks is the largest representable simulation time.
const MaxTicks = Ticks(math.MaxUint64)

// Handler is a scheduled callback target. Components implement Fire on a
// long-lived struct so one pre-allocated Event can drive a whole state
// machine without per-cycle closure allocations.
type Handler interface {
	Fire()
}

// HandlerFunc adapts an ordinary func() to Handler. func values are
// pointer-shaped, so the interface conversion itself does not allocate;
// only closures that capture variables do.
type HandlerFunc func()

// Fire implements Handler.
func (f HandlerFunc) Fire() { f() }

const (
	// eventPooled marks events owned by the engine's free list; they are
	// recycled after firing.
	eventPooled uint8 = 1 << iota
	// eventFree marks a pooled event currently sitting in the free list.
	// Scheduling one is always a use-after-recycle bug.
	eventFree
)

// Event.index values other than a far-tier heap position.
const (
	unqueued int32 = -1
	inWheel  int32 = -2
)

// Event is a scheduled callback. Component-owned events come from NewEvent
// and may be scheduled, descheduled, and rescheduled indefinitely; events
// returned by the engine's one-shot Schedule calls belong to the engine's
// pool and must not be retained after they fire.
type Event struct {
	h    Handler
	when Ticks
	seq  uint64
	// next links the event's wheel bucket, or the engine free list for a
	// recycled pooled event.
	next *Event
	// index is the event's far-tier heap position, inWheel while it sits
	// in a wheel bucket, or unqueued.
	index int32
	flags uint8
}

// NewEvent returns an unscheduled, component-owned event bound to h.
// Reusing one event per state machine keeps scheduling allocation-free.
func NewEvent(h Handler) *Event {
	if h == nil {
		panic("sim: NewEvent with nil handler")
	}
	return &Event{h: h, index: unqueued}
}

// When returns the tick at which the event is scheduled to fire.
func (e *Event) When() Ticks { return e.when }

// Scheduled reports whether the event is currently in the queue.
func (e *Event) Scheduled() bool { return e != nil && e.index != unqueued }

// wheelSpan is the number of one-tick buckets in the near tier. Measured
// scheduling delays on the NOVA cells are ~99.9% under 2,048 ticks and
// never reach 16,384, so nearly every event stays in the wheel; the rest
// pay a far-tier heap push plus one move.
const (
	wheelSpan  = 2048
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64
)

// bucket is one wheel slot: a FIFO of the events due at one tick, in seq
// order.
type bucket struct{ head, tail *Event }

// Engine is the simulation event loop. It is not safe for concurrent use;
// all components of one simulated system share a single Engine and run on
// one goroutine, exactly like SimObjects share gem5's event queue.
type Engine struct {
	now Ticks
	seq uint64

	// base is the first tick the wheel covers; base <= now, and no
	// pending event is due before base. buckets[t&wheelMask] holds the
	// events due at tick t for t in [base, base+wheelSpan). occ has a bit
	// per non-empty bucket and occWords a bit per non-zero occ word.
	base     Ticks
	buckets  [wheelSpan]bucket
	occ      [wheelWords]uint64
	occWords uint64
	wheelLen int
	// heap is the far tier: events due at or after base+wheelSpan.
	heap []*Event

	free     *Event
	executed uint64
	// stopErr, when set, aborts Run.
	stopErr error
	// intr, when attached, is polled every pollEvery executed events so
	// external cancellation (context, watchdog, signal) can stop the loop
	// without the hot path paying for an atomic load per event.
	intr      *Interrupt
	pollEvery uint64
	sincePoll uint64
}

// initialFarCap pre-sizes the far tier so a run whose schedule reaches past
// the wheel does not pay for heap-slice growth.
const initialFarCap = 1024

// NewEngine returns an empty engine at tick zero.
func NewEngine() *Engine {
	return &Engine{heap: make([]*Event, 0, initialFarCap)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Ticks { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return e.wheelLen + len(e.heap) }

// NextWhen returns the tick of the earliest pending event and whether one
// exists. Clusters use it to compute the next conservative time window
// without popping the queue.
func (e *Engine) NextWhen() (Ticks, bool) {
	if ev := e.peek(); ev != nil {
		return ev.when, true
	}
	return 0, false
}

// Reset returns the engine to tick zero with an empty queue, keeping the
// queue capacity and the event pool so harness jobs can reuse one engine
// across sweep cells without reallocating.
func (e *Engine) Reset() {
	for s := range e.buckets {
		for ev := e.buckets[s].head; ev != nil; {
			next := ev.next
			e.drop(ev)
			ev = next
		}
	}
	e.buckets = [wheelSpan]bucket{}
	e.occ = [wheelWords]uint64{}
	e.occWords = 0
	e.wheelLen = 0
	for i, ev := range e.heap {
		e.drop(ev)
		e.heap[i] = nil
	}
	e.heap = e.heap[:0]
	e.base = 0
	e.now = 0
	e.seq = 0
	e.executed = 0
	e.stopErr = nil
	e.sincePoll = 0
}

// drop unqueues an event Reset discards, recycling pooled ones.
func (e *Engine) drop(ev *Event) {
	ev.index = unqueued
	ev.next = nil
	if ev.flags&eventPooled != 0 {
		e.release(ev)
	}
}

// SetInterrupt attaches a cooperative-stop interrupt polled once per
// pollEvery executed events (0 selects DefaultPollEvents). Each poll
// pulses the interrupt (feeding any watchdog) and, if it has tripped,
// aborts Run with the trip cause. A nil interrupt detaches. Polling never
// mutates simulation state, so attaching one cannot change results.
func (e *Engine) SetInterrupt(i *Interrupt, pollEvery uint64) {
	if pollEvery == 0 {
		pollEvery = DefaultPollEvents
	}
	e.intr = i
	e.pollEvery = pollEvery
	e.sincePoll = 0
}

// --- event pool ---------------------------------------------------------

func (e *Engine) acquire() *Event {
	ev := e.free
	if ev == nil {
		return &Event{index: unqueued, flags: eventPooled}
	}
	e.free = ev.next
	ev.next = nil
	ev.flags = eventPooled
	return ev
}

func (e *Engine) release(ev *Event) {
	ev.h = nil
	ev.flags = eventPooled | eventFree
	ev.next = e.free
	e.free = ev
}

// --- scheduling ---------------------------------------------------------

// Schedule enqueues a one-shot firing of h delay ticks from now. The
// returned event comes from the engine's pool: it may be descheduled while
// pending, but must not be retained after it fires — use NewEvent for
// events that are reused.
func (e *Engine) Schedule(delay Ticks, h Handler) *Event {
	return e.ScheduleAt(e.now+delay, h)
}

// ScheduleAt is Schedule at an absolute tick. Scheduling in the past
// panics: it is always a component bug.
func (e *Engine) ScheduleAt(when Ticks, h Handler) *Event {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", when, e.now))
	}
	if h == nil {
		panic("sim: schedule nil handler")
	}
	ev := e.acquire()
	ev.h = h
	e.push(ev, when)
	return ev
}

// ScheduleFunc is the func() compatibility shim over Schedule.
func (e *Engine) ScheduleFunc(delay Ticks, fn func()) *Event {
	if fn == nil {
		panic("sim: schedule nil callback")
	}
	return e.ScheduleAt(e.now+delay, HandlerFunc(fn))
}

// ScheduleFuncAt is the func() compatibility shim over ScheduleAt.
func (e *Engine) ScheduleFuncAt(when Ticks, fn func()) *Event {
	if fn == nil {
		panic("sim: schedule nil callback")
	}
	return e.ScheduleAt(when, HandlerFunc(fn))
}

// ScheduleEvent enqueues a component-owned event delay ticks from now.
func (e *Engine) ScheduleEvent(ev *Event, delay Ticks) {
	e.ScheduleEventAt(ev, e.now+delay)
}

// ScheduleEventAt enqueues a component-owned event at an absolute tick.
// The event must not already be scheduled (use Reschedule to move one).
func (e *Engine) ScheduleEventAt(ev *Event, when Ticks) {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", when, e.now))
	}
	if ev.Scheduled() {
		panic("sim: ScheduleEventAt on an already-scheduled event")
	}
	if ev.flags&eventFree != 0 {
		panic("sim: schedule of a recycled pooled event")
	}
	if ev.h == nil {
		panic("sim: schedule event with nil handler")
	}
	e.push(ev, when)
}

// Deschedule removes a pending event. Descheduling an unscheduled event is
// a no-op so callers can cancel idempotently.
func (e *Engine) Deschedule(ev *Event) {
	if !ev.Scheduled() {
		return
	}
	e.remove(ev)
	// A canceled one-shot goes straight back to the pool; reviving it
	// afterwards is a use-after-recycle bug the eventFree guard catches.
	if ev.flags&eventPooled != 0 {
		e.release(ev)
	}
}

// Reschedule moves a pending event (or revives a fired one) to a new
// absolute time. A still-pending event keeps its insertion rank; a revived
// one is ranked as a fresh insertion, exactly like the pre-pool kernel.
func (e *Engine) Reschedule(ev *Event, when Ticks) {
	if when < e.now {
		panic(fmt.Sprintf("sim: reschedule at %d before now %d", when, e.now))
	}
	if ev.flags&eventFree != 0 {
		panic("sim: reschedule of a recycled pooled event")
	}
	if ev.Scheduled() {
		e.remove(ev)
		ev.when = when
		e.insert(ev)
		return
	}
	e.push(ev, when)
}

// --- two-tier queue -----------------------------------------------------

// push ranks ev as the newest insertion and queues it at when.
func (e *Engine) push(ev *Event, when Ticks) {
	ev.when = when
	ev.seq = e.seq
	e.seq++
	e.insert(ev)
}

// insert queues ev by its (when, seq) in whichever tier covers when.
// when >= now >= base, so the subtraction cannot wrap.
func (e *Engine) insert(ev *Event) {
	if ev.when-e.base < wheelSpan {
		e.wheelInsert(ev)
		return
	}
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
}

// remove unqueues a scheduled event from whichever tier holds it.
func (e *Engine) remove(ev *Event) {
	if ev.index == inWheel {
		e.wheelRemove(ev)
		return
	}
	e.removeAt(int(ev.index))
}

// peek returns the earliest pending event without unqueueing it, or nil.
// Wheel events are all due before base+wheelSpan and far events at or
// after it, so a non-empty wheel always holds the minimum.
func (e *Engine) peek() *Event {
	if e.wheelLen > 0 {
		return e.buckets[e.firstSlot()].head
	}
	if len(e.heap) > 0 {
		return e.heap[0]
	}
	return nil
}

// advance moves the wheel to start at t, the tick of the event just
// popped, and moves every far event that comes into range into the wheel.
// The buckets they land in held ticks before t, which are all past, so
// they are empty, and the heap yields them in (when, seq) order: each
// bucket comes out sorted by seq.
func (e *Engine) advance(t Ticks) {
	e.base = t
	for len(e.heap) > 0 && e.heap[0].when-t < wheelSpan {
		ev := e.heap[0]
		e.removeAt(0)
		e.wheelInsert(ev)
	}
}

// firstSlot returns the slot of the earliest non-empty bucket: the first
// occupied slot at or after base's, wrapping around. Only valid while
// wheelLen > 0.
func (e *Engine) firstSlot() int {
	s := int(e.base & wheelMask)
	w := s >> 6
	if m := e.occ[w] >> (s & 63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	// Later words first; failing those, wrap to the lowest occupied word.
	// That may be w itself: its bits below s hold the wheel's last ticks.
	words := e.occWords &^ (1<<(w+1) - 1)
	if words == 0 {
		words = e.occWords
	}
	w = bits.TrailingZeros64(words)
	return w<<6 + bits.TrailingZeros64(e.occ[w])
}

// wheelInsert adds ev to its tick's bucket at its seq rank. Pushes and
// moves from the far tier always carry the bucket's largest seq and
// append; only a Reschedule of a pending event can land mid-bucket.
func (e *Engine) wheelInsert(ev *Event) {
	s := int(ev.when & wheelMask)
	b := &e.buckets[s]
	ev.index = inWheel
	e.wheelLen++
	switch {
	case b.head == nil:
		ev.next = nil
		b.head, b.tail = ev, ev
		e.occ[s>>6] |= 1 << (s & 63)
		e.occWords |= 1 << (s >> 6)
	case b.tail.seq < ev.seq:
		ev.next = nil
		b.tail.next = ev
		b.tail = ev
	default:
		p := &b.head
		for (*p).seq < ev.seq {
			p = &(*p).next
		}
		ev.next = *p
		*p = ev
	}
}

// wheelRemove unlinks ev from its bucket: O(1) for the head, which is
// every pop, and a walk to its predecessor otherwise.
func (e *Engine) wheelRemove(ev *Event) {
	s := int(ev.when & wheelMask)
	b := &e.buckets[s]
	var prev *Event
	p := &b.head
	for *p != ev {
		prev = *p
		p = &prev.next
	}
	*p = ev.next
	if b.tail == ev {
		b.tail = prev
	}
	if b.head == nil {
		w := s >> 6
		e.occ[w] &^= 1 << (s & 63)
		if e.occ[w] == 0 {
			e.occWords &^= 1 << w
		}
	}
	ev.next = nil
	ev.index = unqueued
	e.wheelLen--
}

// --- far tier: intrusive 4-ary min-heap ---------------------------------
//
// A 4-ary layout halves tree depth versus binary, trading slightly wider
// sibling scans (which hit one cache line) for fewer cache-missing levels.
// Ordering is (when, seq): seq is unique, so the comparator is a total
// order and pop order is independent of heap shape.

func eventLess(a, b *Event) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

func (e *Engine) removeAt(i int) {
	h := e.heap
	n := len(h) - 1
	ev := h[i]
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	ev.index = unqueued
	if i == n {
		return
	}
	h[i] = last
	last.index = int32(i)
	e.siftDown(i)
	if h[i] == last {
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = ev
	ev.index = int32(i)
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = int32(i)
		i = m
	}
	h[i] = ev
	ev.index = int32(i)
}

// --- run loop -----------------------------------------------------------

// Stop aborts a Run in progress after the current event returns. The error
// is reported by Run; a nil err stops cleanly.
func (e *Engine) Stop(err error) {
	if err == nil {
		err = errStopped
	}
	e.stopErr = err
}

var errStopped = errors.New("sim: stopped")

// ErrMaxEvents is reported by Run when the event budget is exhausted.
var ErrMaxEvents = errors.New("sim: event budget exhausted")

// Run executes events until the queue is empty (global quiescence), the
// horizon is passed, the event budget is exhausted, or Stop is called.
// horizon and maxEvents of 0 mean unlimited. It returns the reason the run
// ended: nil for quiescence or horizon, ErrMaxEvents for budget exhaustion,
// or the Stop error.
func (e *Engine) Run(horizon Ticks, maxEvents uint64) error {
	if horizon == 0 {
		horizon = MaxTicks
	}
	for {
		next := e.peek()
		if next == nil {
			return nil
		}
		if next.when > horizon {
			e.now = horizon
			return nil
		}
		e.remove(next)
		if next.when != e.base {
			e.advance(next.when)
		}
		e.now = next.when
		next.h.Fire()
		// Pooled one-shots recycle unless the handler re-armed them.
		if next.flags&eventPooled != 0 && next.index == unqueued {
			e.release(next)
		}
		e.executed++
		if e.stopErr != nil {
			err := e.stopErr
			e.stopErr = nil
			if errors.Is(err, errStopped) {
				return nil
			}
			return err
		}
		if maxEvents > 0 && e.executed >= maxEvents {
			return ErrMaxEvents
		}
		if e.intr != nil {
			e.sincePoll++
			if e.sincePoll >= e.pollEvery {
				e.sincePoll = 0
				e.intr.Pulse()
				if err := e.intr.Err(); err != nil {
					return err
				}
			}
		}
	}
}

// RunUntilQuiet is Run with no horizon and the given event budget.
func (e *Engine) RunUntilQuiet(maxEvents uint64) error {
	return e.Run(0, maxEvents)
}

// Clock converts between ticks and wall-clock seconds at a fixed frequency.
type Clock struct {
	// HZ is the component frequency in cycles per second.
	HZ float64
}

// Seconds converts a tick count to seconds.
func (c Clock) Seconds(t Ticks) float64 { return float64(t) / c.HZ }

// TicksFor returns the number of whole ticks needed to transfer the given
// number of bytes at bytesPerSec, rounding up and never returning zero for
// a nonzero transfer. Integral rates (every preset in the repo) take an
// exact 128-bit ceil((bytes*HZ)/bps) path, so multi-terabyte transfers do
// not lose ticks to float64 rounding; fractional rates fall back to the
// float path.
func (c Clock) TicksFor(bytes int, bytesPerSec float64) Ticks {
	if bytes <= 0 {
		return 0
	}
	hz := uint64(c.HZ)
	bps := uint64(bytesPerSec)
	if bps > 0 && float64(hz) == c.HZ && float64(bps) == bytesPerSec {
		hi, lo := bits.Mul64(uint64(bytes), hz)
		lo, carry := bits.Add64(lo, bps-1, 0)
		hi += carry
		if hi >= bps {
			return MaxTicks
		}
		t, _ := bits.Div64(hi, lo, bps)
		if t == 0 {
			t = 1
		}
		return Ticks(t)
	}
	t := Ticks(math.Ceil(float64(bytes) / bytesPerSec * c.HZ))
	if t == 0 {
		t = 1
	}
	return t
}
