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

// refEvent is one event as the reference model sees it: a one-shot, or a
// component event with its handle ev.
type refEvent struct {
	id      int
	ev      *Event
	when    Ticks
	seq     uint64
	pending bool
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
	q.fired++
	for n := q.rng.Intn(3); n > 0; n-- {
		q.op(true)
	}
}

// queueModel mirrors an Engine's pending queue as a flat list ordered by
// (when, seq) — the order the engine must pop in — and drives random
// one-shot schedules and component-event schedule, move and deschedule
// traffic at both.
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
	fired, ties, far, inRun, moves, deschedMidBucket, deschedFar int
	horizonRuns, budgetRuns                                      int
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

// pend ranks r as the newest insertion at when, as every schedule does.
func (q *queueModel) pend(r *refEvent, when Ticks) {
	r.seq = q.seq
	q.seq++
	r.when = when
	r.pending = true
	q.pending = append(q.pending, r)
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

// tie returns the tick of a random pending event that is not in the past,
// or when if it draws none.
func (q *queueModel) tie(when Ticks) Ticks {
	if len(q.pending) > 0 {
		if o := q.pending[q.rng.Intn(len(q.pending))]; o.when >= q.e.Now() {
			return o.when
		}
	}
	return when
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
	case k < 5: // fresh one-shot
		r := q.oneShot()
		when := now + q.delay()
		if q.rng.Intn(4) == 0 {
			when = q.tie(when)
		}
		q.count(r, when)
		q.e.ScheduleAt(when, r)
		q.pend(r, when)
	case k < 8: // component event: arm an idle one, or move a pending one
		r := q.comps[q.rng.Intn(len(q.comps))]
		when := now + q.delay()
		if q.rng.Intn(2) == 0 {
			// Land on another event's tick, so the insert appends to a
			// bucket that already has events.
			when = q.tie(when)
		}
		if r.pending {
			q.cov.moves++
			q.e.Deschedule(r.ev)
			q.unpend(r)
		}
		q.count(r, when)
		q.e.ScheduleEventAt(r.ev, when)
		q.pend(r, when)
	default: // cancel a pending component event
		r := q.comps[q.rng.Intn(len(q.comps))]
		if !r.pending {
			return
		}
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

func (q *queueModel) oneShot() *refEvent {
	q.nextID++
	return &refEvent{id: q.nextID, q: q}
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
// past the wheel span, component events moved with Deschedule and
// ScheduleEventAt or descheduled mid-bucket and from the far tier,
// handlers that schedule while Run executes, and horizon- and
// budget-bounded Runs — and requires every event to fire exactly when and
// in the order the model says.
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
			q.run()
			q.check("after Run")
		}
		if err := q.e.RunUntilQuiet(0); err != nil {
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
		"ops inside Run": cov.inRun, "component moves": cov.moves,
		"mid-bucket deschedules": cov.deschedMidBucket, "far deschedules": cov.deschedFar,
		"horizon-bounded runs": cov.horizonRuns, "budget-bounded runs": cov.budgetRuns,
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
		err := q.e.RunUntilQuiet(q.e.Executed() + k)
		switch {
		case q.fired-start == int(k):
			q.cov.budgetRuns++
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
		q.cov.horizonRuns++
		if m.when <= horizon {
			q.failf("Run(%d) returned with event %d due at %d", horizon, m.id, m.when)
		}
		if q.e.Now() != horizon {
			q.failf("Run(%d) left now=%d, want the horizon", horizon, q.e.Now())
		}
	}
}
