package sim

import (
	"errors"
	"math/rand"
	"testing"
)

// refSpan is the wheel span. The test uses only the Engine API, so it
// names the span itself: it is a contract test of the queue, and any
// correct queue passes it whatever its tiers.
const refSpan = 2048

// refEvent is one event as the reference model sees it.
type refEvent struct {
	id      int
	ev      *Event
	when    Ticks
	seq     uint64
	pending bool
	pooled  bool
	q       *queueModel
}

// Fire checks that the engine fired exactly the model's next event, then
// lets the handler act on the queue as components do.
func (r *refEvent) Fire() {
	q := r.q
	if q.failed {
		return
	}
	want := q.min()
	if want != r {
		q.failf("fired event %d at %d, model's next is %d (when %d seq %d)", r.id, q.e.Now(), want.id, want.when, want.seq)
		return
	}
	if q.e.Now() != r.when {
		q.failf("event %d fired at now=%d, scheduled for %d", r.id, q.e.Now(), r.when)
		return
	}
	q.unpend(r)
	if r.pooled {
		r.ev = nil // recycled once Fire returns
	}
	q.fired++
	for n := q.rng.Intn(3); n > 0; n-- {
		q.op(true)
	}
}

// queueModel mirrors an Engine's pending queue as a flat list ordered by
// (when, seq) — the order the engine must pop in — and drives random
// schedule, reschedule and deschedule traffic at both.
type queueModel struct {
	t       *testing.T
	e       *Engine
	rng     *rand.Rand
	seq     uint64
	pending []*refEvent
	comps   []*refEvent // component-owned events, reused across firings
	nextID  int
	fired   int
	failed  bool
	cov     *coverage
}

// coverage counts, across all seeds, the cases the test exists for; each
// must occur.
type coverage struct {
	fired, ties, far, inRun, reschedPending, reschedMidBucket, reschedFired int
	deschedMidBucket, deschedFar                                            int
}

func (q *queueModel) failf(format string, args ...any) {
	q.failed = true
	q.t.Errorf(format, args...)
}

func (q *queueModel) min() *refEvent {
	var m *refEvent
	for _, r := range q.pending {
		if m == nil || r.when < m.when || (r.when == m.when && r.seq < m.seq) {
			m = r
		}
	}
	return m
}

func (q *queueModel) pend(r *refEvent, when Ticks, newRank bool) {
	if newRank {
		r.seq = q.seq
		q.seq++
	}
	r.when = when
	if !r.pending {
		r.pending = true
		q.pending = append(q.pending, r)
	}
}

func (q *queueModel) unpend(r *refEvent) {
	r.pending = false
	for i, p := range q.pending {
		if p == r {
			last := len(q.pending) - 1
			q.pending[i] = q.pending[last]
			q.pending = q.pending[:last]
			return
		}
	}
}

// delay draws from a mix with many same-tick ties, most delays inside
// the wheel, and a tail past its span.
func (q *queueModel) delay() Ticks {
	switch p := q.rng.Intn(100); {
	case p < 25:
		return Ticks(q.rng.Intn(3))
	case p < 60:
		return Ticks(q.rng.Intn(64))
	case p < 85:
		return Ticks(q.rng.Intn(refSpan))
	case p < 98:
		return Ticks(refSpan + q.rng.Intn(2*refSpan))
	default:
		return Ticks(q.rng.Intn(40 * refSpan))
	}
}

// midBucket reports whether pending events other than r share r's tick
// with both a lower and a higher seq: r sits mid-bucket.
func (q *queueModel) midBucket(r *refEvent) bool {
	lo, hi := false, false
	for _, p := range q.pending {
		if p != r && p.when == r.when {
			lo = lo || p.seq < r.seq
			hi = hi || p.seq > r.seq
		}
	}
	return lo && hi
}

// op applies one random queue operation to both the engine and the model.
func (q *queueModel) op(inRun bool) {
	if inRun {
		q.cov.inRun++
	}
	now := q.e.Now()
	k := q.rng.Intn(10)
	if len(q.pending) < 20 {
		k = 0
	}
	switch {
	case k < 4: // fresh one-shot
		r := q.oneShot()
		when := now + q.delay()
		if q.rng.Intn(4) == 0 && len(q.pending) > 0 {
			// Tie with an existing event that is not in the past.
			if o := q.pending[q.rng.Intn(len(q.pending))]; o.when >= now {
				when = o.when
			}
		}
		q.count(r, when)
		r.ev = q.e.ScheduleAt(when, r)
		q.pend(r, when, true)
	case k < 6: // component event: schedule, revive (new rank) or move (kept rank)
		r := q.comps[q.rng.Intn(len(q.comps))]
		when := now + q.delay()
		switch {
		case r.pending:
			q.reschedule(r, when)
		case q.rng.Intn(2) == 0:
			q.cov.reschedFired++
			q.e.Reschedule(r.ev, when)
			q.pend(r, when, true)
		default:
			q.e.ScheduleEventAt(r.ev, when)
			q.pend(r, when, true)
		}
	case k < 8: // move a pending event, keeping its rank
		r := q.pending[q.rng.Intn(len(q.pending))]
		when := now + q.delay()
		if q.rng.Intn(2) == 0 {
			// Land on another event's tick, so the move inserts by rank
			// into a bucket that already has events.
			if o := q.pending[q.rng.Intn(len(q.pending))]; o.when >= now {
				when = o.when
			}
		}
		q.reschedule(r, when)
	default: // cancel a pending event
		r := q.pending[q.rng.Intn(len(q.pending))]
		if q.midBucket(r) {
			q.cov.deschedMidBucket++
		}
		if r.when >= now+refSpan {
			q.cov.deschedFar++
		}
		q.e.Deschedule(r.ev)
		q.e.Deschedule(r.ev) // idempotent
		q.unpend(r)
		if r.ev.Scheduled() {
			q.failf("event %d still scheduled after Deschedule", r.id)
		}
		if r.pooled {
			r.ev = nil
		}
	}
}

func (q *queueModel) count(r *refEvent, when Ticks) {
	if when >= q.e.Now()+refSpan {
		q.cov.far++
	}
	for _, p := range q.pending {
		if p != r && p.when == when {
			q.cov.ties++
			return
		}
	}
}

func (q *queueModel) reschedule(r *refEvent, when Ticks) {
	q.cov.reschedPending++
	r.when = when
	if q.midBucket(r) {
		q.cov.reschedMidBucket++
	}
	q.count(r, when)
	q.e.Reschedule(r.ev, when)
	q.pend(r, when, false)
}

func (q *queueModel) oneShot() *refEvent {
	q.nextID++
	return &refEvent{id: q.nextID, pooled: true, q: q}
}

// check compares the engine's observable queue state with the model's.
func (q *queueModel) check(where string) {
	if got := q.e.Pending(); got != len(q.pending) {
		q.failf("%s: Pending() = %d, model has %d", where, got, len(q.pending))
	}
	w, ok := q.e.NextWhen()
	m := q.min()
	switch {
	case m == nil && ok:
		q.failf("%s: NextWhen() = %d on an empty model", where, w)
	case m != nil && (!ok || w != m.when):
		q.failf("%s: NextWhen() = %d,%v, model's next is at %d", where, w, ok, m.when)
	}
}

// TestQueueOrderMatchesReference drives the engine and a reference
// (when, seq) model with the same random traffic — same-tick ties, delays
// past the wheel span, Reschedule of pending events (kept rank) and of
// fired ones (new rank), Deschedule mid-bucket and from the far tier,
// handlers that schedule while Run executes, horizon- and budget-bounded
// Runs, and Reset with both tiers populated — and requires every event to
// fire exactly when and in the order the model says.
func TestQueueOrderMatchesReference(t *testing.T) {
	cov := &coverage{}
	for seed := int64(1); seed <= 12; seed++ {
		q := &queueModel{t: t, e: NewEngine(), rng: rand.New(rand.NewSource(seed)), cov: cov}
		for i := 0; i < 16; i++ {
			r := &refEvent{id: -1 - i, q: q}
			r.ev = NewEvent(r)
			q.comps = append(q.comps, r)
		}
		const rounds = 400
		for round := 0; round < rounds && !q.failed; round++ {
			for n := q.rng.Intn(12); n > 0; n-- {
				q.op(false)
			}
			if round == rounds/2 {
				q.reset()
				continue
			}
			q.run()
			q.check("after Run")
		}
		if err := q.e.Run(0, 0); err != nil {
			t.Fatal(err)
		}
		q.check("after drain")
		if len(q.pending) != 0 {
			t.Fatalf("seed %d: %d events never fired", seed, len(q.pending))
		}
		cov.fired += q.fired
		if t.Failed() {
			t.Fatalf("seed %d diverged from the reference model", seed)
		}
	}
	for name, n := range map[string]int{
		"fired": cov.fired, "same-tick ties": cov.ties, "past-span schedules": cov.far,
		"ops inside Run": cov.inRun, "pending reschedules": cov.reschedPending,
		"mid-bucket reschedules": cov.reschedMidBucket, "fired reschedules": cov.reschedFired,
		"mid-bucket deschedules": cov.deschedMidBucket, "far deschedules": cov.deschedFar,
	} {
		if n == 0 {
			t.Errorf("no %s exercised", name)
		}
	}
	t.Logf("%+v", *cov)
}

// run executes a horizon- or budget-bounded Run and checks where it
// stopped.
func (q *queueModel) run() {
	before := q.e.Now()
	if q.rng.Intn(4) == 0 {
		k := uint64(1 + q.rng.Intn(40))
		start := q.fired
		err := q.e.Run(0, q.e.Executed()+k)
		switch {
		case q.fired-start == int(k):
			if !errors.Is(err, ErrMaxEvents) {
				q.failf("budget Run of %d events returned %v", k, err)
			}
		case err != nil || len(q.pending) != 0:
			q.failf("budget Run stopped after %d of %d events with %d pending: %v", q.fired-start, k, len(q.pending), err)
		}
		return
	}
	horizon := before + Ticks(q.rng.Intn(3*refSpan))
	if err := q.e.Run(horizon, 0); err != nil {
		q.failf("Run(%d) = %v", horizon, err)
		return
	}
	if m := q.min(); m != nil {
		if m.when <= horizon {
			q.failf("Run(%d) returned with event %d due at %d", horizon, m.id, m.when)
		}
		if q.e.Now() != horizon {
			q.failf("Run(%d) left now=%d, want the horizon", horizon, q.e.Now())
		}
	}
}

// reset calls Reset with events in both tiers and checks the engine is
// empty and reusable.
func (q *queueModel) reset() {
	now := q.e.Now()
	for _, d := range []Ticks{1, 3 * refSpan} {
		r := q.oneShot()
		r.ev = q.e.Schedule(d, r)
		q.pend(r, now+d, true)
	}
	if c := q.comps[0]; !c.pending {
		q.e.ScheduleEvent(c.ev, 2)
		q.pend(c, now+2, true)
	}
	q.e.Reset()
	for _, r := range q.pending {
		r.pending = false
		if r.ev.Scheduled() {
			q.failf("event %d still scheduled after Reset", r.id)
		}
		if r.pooled {
			r.ev = nil
		}
	}
	q.pending = q.pending[:0]
	if q.e.Now() != 0 || q.e.Executed() != 0 {
		q.failf("Reset left now=%d executed=%d", q.e.Now(), q.e.Executed())
	}
	q.check("after Reset")
}
