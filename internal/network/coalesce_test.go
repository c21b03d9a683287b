package network

import (
	"testing"

	"nova/internal/sim"
	"nova/program"
)

// testBatch is a minimal Batch implementation standing in for the core
// engine's pooled delivery tasks.
type testBatch struct {
	msgs      []program.Message
	fired     bool
	firedAt   sim.Ticks
	eng       *sim.Engine
	discarded bool
}

func (b *testBatch) Fire() {
	b.fired = true
	if b.eng != nil {
		b.firedAt = b.eng.Now()
	}
}
func (b *testBatch) Payload() []program.Message     { return b.msgs }
func (b *testBatch) SetPayload(m []program.Message) { b.msgs = m }
func (b *testBatch) Discard()                       { b.discarded = true }

func minMerge(a, b program.Prop) program.Prop {
	if b < a {
		return b
	}
	return a
}

func coalFabric(eng *sim.Engine, window sim.Ticks, capacity, vertices int) *Hierarchical {
	return NewFabric(sharedEngines(eng, 2), 1, FabricConfig{
		P2P:      DefaultP2PConfig(),
		Crossbar: CrossbarConfig{BytesPerCycle: 2, Latency: 50},
		Coalesce: CoalesceConfig{Window: window, Capacity: capacity},
		Vertices: vertices,
	})
}

func TestCoalesceMergesSameVertex(t *testing.T) {
	eng := sim.NewEngine()
	f := coalFabric(eng, 8, 0, 16)
	f.SetMerge(minMerge)
	b1 := &testBatch{eng: eng, msgs: []program.Message{{Dst: 1, Delta: 5}, {Dst: 2, Delta: 7}}}
	b2 := &testBatch{eng: eng, msgs: []program.Message{{Dst: 1, Delta: 3}, {Dst: 3, Delta: 9}}}
	f.Send(0, 1, 16, b1)
	f.Send(0, 1, 16, b2)
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if !b1.fired {
		t.Fatal("head batch never delivered")
	}
	if b2.fired || !b2.discarded {
		t.Fatalf("absorbed batch fired=%v discarded=%v, want false/true", b2.fired, b2.discarded)
	}
	want := []program.Message{{Dst: 1, Delta: 3}, {Dst: 2, Delta: 7}, {Dst: 3, Delta: 9}}
	if len(b1.msgs) != len(want) {
		t.Fatalf("merged payload = %v, want %v", b1.msgs, want)
	}
	for i := range want {
		if b1.msgs[i] != want[i] {
			t.Fatalf("merged payload = %v, want %v", b1.msgs, want)
		}
	}
	st := f.Stats()
	if st.Messages != 1 || st.Coalesced != 1 || st.MergedUpdates != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// 32 bytes offered, 3 entries × 8 B sent: 8 saved.
	if st.BytesSaved != 8 || st.InterBytes != 24 {
		t.Fatalf("bytes_saved=%d inter=%d, want 8/24", st.BytesSaved, st.InterBytes)
	}
	// Flush at the 8-tick window close, then 24 B at 2 B/cy through the
	// crossbar's two port stages (12 + 12) plus 50 cycles of latency.
	if b1.firedAt != 8+12+12+50 {
		t.Fatalf("delivered at %d, want 82", b1.firedAt)
	}
}

func TestCoalesceAppendOnlyWithoutMerge(t *testing.T) {
	eng := sim.NewEngine()
	f := coalFabric(eng, 8, 0, 0) // no vertex index: append-only
	f.SetMerge(minMerge)
	b1 := &testBatch{eng: eng, msgs: []program.Message{{Dst: 1, Delta: 5}}}
	b2 := &testBatch{eng: eng, msgs: []program.Message{{Dst: 1, Delta: 3}}}
	f.Send(0, 1, 8, b1)
	f.Send(0, 1, 8, b2)
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if len(b1.msgs) != 2 {
		t.Fatalf("payload = %v, want both entries appended", b1.msgs)
	}
	st := f.Stats()
	if st.Coalesced != 1 || st.MergedUpdates != 0 || st.BytesSaved != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoalesceCapacityFlushesEarly(t *testing.T) {
	eng := sim.NewEngine()
	f := coalFabric(eng, 10_000, 4, 16)
	b1 := &testBatch{eng: eng, msgs: []program.Message{{Dst: 1, Delta: 1}, {Dst: 2, Delta: 1}}}
	b2 := &testBatch{eng: eng, msgs: []program.Message{{Dst: 3, Delta: 1}, {Dst: 4, Delta: 1}}}
	f.Send(0, 1, 16, b1)
	f.Send(0, 1, 16, b2)
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if !b1.fired {
		t.Fatal("batch never delivered")
	}
	// Capacity 4 reached at the second send: flush at tick 0, not at the
	// 10000-tick window close. 32 B through two 2 B/cy port stages + 50.
	if b1.firedAt != 16+16+50 {
		t.Fatalf("delivered at %d, want 82 (early capacity flush)", b1.firedAt)
	}
	if st := f.Stats(); st.Messages != 1 || st.Coalesced != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoalesceOversizedFirstBatchFlushesImmediately(t *testing.T) {
	eng := sim.NewEngine()
	f := coalFabric(eng, 10_000, 2, 16)
	b := &testBatch{eng: eng, msgs: []program.Message{{Dst: 1, Delta: 1}, {Dst: 2, Delta: 1}, {Dst: 3, Delta: 1}}}
	f.Send(0, 1, 24, b)
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if !b.fired {
		t.Fatal("oversized batch never delivered")
	}
	if b.firedAt != 12+12+50 {
		t.Fatalf("delivered at %d, want 74 (no window wait)", b.firedAt)
	}
	if st := f.Stats(); st.Messages != 1 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoalesceDisabledIsTransparent(t *testing.T) {
	eng := sim.NewEngine()
	f := coalFabric(eng, 0, 0, 16) // window 0: stage not even allocated
	b1 := &testBatch{eng: eng, msgs: []program.Message{{Dst: 1, Delta: 5}}}
	b2 := &testBatch{eng: eng, msgs: []program.Message{{Dst: 1, Delta: 3}}}
	f.Send(0, 1, 8, b1)
	f.Send(0, 1, 8, b2)
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Messages != 2 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if b2.discarded {
		t.Fatal("batch discarded with coalescing off")
	}
}

func TestCoalesceBypassesNonBatchHandlers(t *testing.T) {
	eng := sim.NewEngine()
	f := coalFabric(eng, 8, 0, 16)
	var at sim.Ticks
	f.Send(0, 1, 8, sim.HandlerFunc(func() { at = eng.Now() }))
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	// Plain handlers take the uncoalesced path: two 4-cycle port stages
	// plus 50 cycles of switch latency.
	if at != 58 {
		t.Fatalf("delivered at %d, want 58", at)
	}
	if st := f.Stats(); st.Messages != 1 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCoalesceSameVertexAcrossGenerations re-uses one buffer for two
// fill/flush cycles and checks the generation stamp prevents stale index
// hits: the same vertex in a later fill must not write into the flushed
// payload.
func TestCoalesceSameVertexAcrossGenerations(t *testing.T) {
	eng := sim.NewEngine()
	f := coalFabric(eng, 8, 0, 16)
	f.SetMerge(minMerge)
	b1 := &testBatch{eng: eng, msgs: []program.Message{{Dst: 1, Delta: 5}}}
	f.Send(0, 1, 8, b1)
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	b2 := &testBatch{eng: eng, msgs: []program.Message{{Dst: 1, Delta: 9}}}
	b3 := &testBatch{eng: eng, msgs: []program.Message{{Dst: 1, Delta: 2}}}
	f.Send(0, 1, 8, b2)
	f.Send(0, 1, 8, b3)
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if len(b1.msgs) != 1 || b1.msgs[0].Delta != 5 {
		t.Fatalf("first-generation payload mutated: %v", b1.msgs)
	}
	if len(b2.msgs) != 1 || b2.msgs[0].Delta != 2 {
		t.Fatalf("second generation = %v, want merged delta 2", b2.msgs)
	}
	if st := f.Stats(); st.Messages != 2 || st.Coalesced != 1 || st.MergedUpdates != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCoalesceCrossEngineFlush covers the sharded path: the flush fires on
// the source engine, parks the merged batch in the outbox, and Exchange
// delivers it to the destination engine.
func TestCoalesceCrossEngineFlush(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	f := NewFabric(engines, 1, FabricConfig{
		P2P:      DefaultP2PConfig(),
		Crossbar: CrossbarConfig{BytesPerCycle: 2, Latency: 50},
		Coalesce: CoalesceConfig{Window: 8},
		Vertices: 16,
	})
	f.SetMerge(minMerge)
	b1 := &testBatch{eng: engines[1], msgs: []program.Message{{Dst: 1, Delta: 5}}}
	b2 := &testBatch{eng: engines[1], msgs: []program.Message{{Dst: 1, Delta: 3}}}
	f.Send(0, 1, 8, b1)
	f.Send(0, 1, 8, b2)
	if err := engines[0].RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	n, err := f.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Exchange delivered %d messages, want 1 merged batch", n)
	}
	if err := engines[1].RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if !b1.fired || b1.msgs[0].Delta != 3 {
		t.Fatalf("fired=%v payload=%v, want merged delta 3", b1.fired, b1.msgs)
	}
	// Flush at window close (8) + two 4-cycle port stages + 50 latency.
	if b1.firedAt != 8+4+4+50 {
		t.Fatalf("delivered at %d, want 66", b1.firedAt)
	}
	if st := f.Stats(); st.Messages != 1 || st.Coalesced != 1 || st.MergedUpdates != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
