package network

import (
	"testing"

	"nova/internal/sim"
)

func TestHierarchicalLocalDelivery(t *testing.T) {
	eng := sim.NewEngine()
	f := NewHierarchical(SharedEngines(eng, 2), 4, P2PConfig{BytesPerCycle: 1, Latency: 10}, DefaultCrossbarConfig())
	var at sim.Ticks
	f.Send(0, 1, 8, sim.HandlerFunc(func() { at = eng.Now() }))
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	// 8 bytes at 1 B/cy = 8 service + 10 latency.
	if at != 18 {
		t.Fatalf("delivered at %d, want 18", at)
	}
	st := f.Stats()
	if st.LocalBytes != 8 || st.InterBytes != 0 || st.Messages != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHierarchicalInterGPN(t *testing.T) {
	eng := sim.NewEngine()
	f := NewHierarchical(SharedEngines(eng, 2), 4, DefaultP2PConfig(), CrossbarConfig{BytesPerCycle: 2, Latency: 50})
	var at sim.Ticks
	// PE 0 (GPN 0) to PE 5 (GPN 1).
	f.Send(0, 5, 8, sim.HandlerFunc(func() { at = eng.Now() }))
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	// 8 B at 2 B/cy through two store-and-forward port stages (4 + 4)
	// plus 50 cycles of switch latency.
	if at != 58 {
		t.Fatalf("delivered at %d, want 58", at)
	}
	if st := f.Stats(); st.InterBytes != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHierarchicalLinkSerialization(t *testing.T) {
	eng := sim.NewEngine()
	f := NewHierarchical(SharedEngines(eng, 1), 2, P2PConfig{BytesPerCycle: 1, Latency: 0}, DefaultCrossbarConfig())
	var last sim.Ticks
	for i := 0; i < 10; i++ {
		f.Send(0, 1, 4, sim.HandlerFunc(func() { last = eng.Now() }))
	}
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	// 10 transfers of 4 cycles serialize on one link.
	if last != 40 {
		t.Fatalf("last delivery %d, want 40", last)
	}
}

func TestHierarchicalDistinctLinksParallel(t *testing.T) {
	eng := sim.NewEngine()
	f := NewHierarchical(SharedEngines(eng, 1), 4, P2PConfig{BytesPerCycle: 1, Latency: 0}, DefaultCrossbarConfig())
	var a, b sim.Ticks
	f.Send(0, 1, 4, sim.HandlerFunc(func() { a = eng.Now() }))
	f.Send(2, 3, 4, sim.HandlerFunc(func() { b = eng.Now() }))
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if a != 4 || b != 4 {
		t.Fatalf("parallel links serialized: %d, %d", a, b)
	}
}

func TestCrossbarPortContention(t *testing.T) {
	eng := sim.NewEngine()
	f := NewHierarchical(SharedEngines(eng, 3), 1, DefaultP2PConfig(), CrossbarConfig{BytesPerCycle: 1, Latency: 0})
	var a, b sim.Ticks
	// Two different sources target the same destination GPN: the input
	// port serializes them.
	f.Send(0, 2, 4, sim.HandlerFunc(func() { a = eng.Now() }))
	f.Send(1, 2, 4, sim.HandlerFunc(func() { b = eng.Now() }))
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	// Message A: out-port 0..4, in-port 4..8. Message B rides its own
	// out-port 0..4 but queues behind A on the shared input port: 8..12.
	if a != 8 || b != 12 {
		t.Fatalf("input port contention not modeled: %d, %d", a, b)
	}
}

func TestIdealFabric(t *testing.T) {
	eng := sim.NewEngine()
	f := NewIdeal(SharedEngines(eng, 1), 8, 5)
	var times []sim.Ticks
	for i := 0; i < 100; i++ {
		f.Send(0, 1, 1<<20, sim.HandlerFunc(func() { times = append(times, eng.Now()) }))
	}
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	for _, at := range times {
		if at != 5 {
			t.Fatalf("ideal fabric delayed delivery to %d", at)
		}
	}
	if f.Stats().Messages != 100 {
		t.Fatalf("messages = %d", f.Stats().Messages)
	}
}

func TestGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	NewHierarchical(nil, 8, DefaultP2PConfig(), DefaultCrossbarConfig())
}

func TestSubCycleMessagesUseFractionalBandwidth(t *testing.T) {
	// 8-byte messages on a 30 B/cy crossbar port: 30 of them must fit in
	// ~8 cycles of port time, not 30 cycles.
	eng := sim.NewEngine()
	f := NewHierarchical(SharedEngines(eng, 2), 1, DefaultP2PConfig(), CrossbarConfig{BytesPerCycle: 30, Latency: 0})
	var last sim.Ticks
	for i := 0; i < 30; i++ {
		f.Send(0, 1, 8, sim.HandlerFunc(func() { last = eng.Now() }))
	}
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	// 240 bytes through two 30 B/cy stages ≈ 8+ cycles, far below 30.
	if last > 12 {
		t.Fatalf("30 sub-cycle messages took %d cycles; fractional bandwidth lost", last)
	}
}

// TestHierarchicalExchangePastArrival drives the cross-shard path into a
// lookahead violation: the destination engine has already advanced past
// the message's arrival tick when the barrier delivers it. Exchange must
// return an error instead of silently scheduling into the past.
func TestHierarchicalExchangePastArrival(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	f := NewHierarchical(engines, 4, DefaultP2PConfig(), CrossbarConfig{BytesPerCycle: 2, Latency: 50})
	// PE 0 (GPN 0) to PE 5 (GPN 1): buffered in GPN 0's outbox, arrival
	// around tick 58 (2x4 cycles of port service + 50 switch latency).
	f.Send(0, 5, 8, sim.HandlerFunc(func() {}))
	// Simulate an unsound window: the destination engine free-runs far
	// beyond the arrival tick before the barrier exchanges messages.
	engines[1].ScheduleAt(500, sim.HandlerFunc(func() {}))
	if err := engines[1].RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exchange(); err == nil {
		t.Fatal("Exchange scheduled a cross-shard message into the destination's past; want a lookahead-violation error")
	}
}

// TestHierarchicalExchangeDelivers runs the cross-shard path the sound
// way: Exchange at the barrier schedules the buffered message on the
// destination engine at the same tick the shared-engine path would use.
func TestHierarchicalExchangeDelivers(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	f := NewHierarchical(engines, 4, DefaultP2PConfig(), CrossbarConfig{BytesPerCycle: 2, Latency: 50})
	var at sim.Ticks
	f.Send(0, 5, 8, sim.HandlerFunc(func() { at = engines[1].Now() }))
	n, err := f.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Exchange delivered %d messages, want 1", n)
	}
	if err := engines[1].RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	// Same arithmetic as the shared-engine inter-GPN test: 4+4 cycles of
	// port service plus 50 cycles of switch latency.
	if at != 58 {
		t.Fatalf("delivered at %d, want 58", at)
	}
	if st := f.Stats(); st.InterBytes != 8 || st.Messages != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
