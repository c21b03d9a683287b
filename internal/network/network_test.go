package network

import (
	"fmt"
	"testing"

	"nova/graph"
	"nova/internal/sim"
	"nova/program"
)

// sharedEngines names eng as the engine of every one of gpns GPNs: a
// system whose GPNs all share one event loop.
func sharedEngines(eng *sim.Engine, gpns int) []*sim.Engine {
	engines := make([]*sim.Engine, gpns)
	for i := range engines {
		engines[i] = eng
	}
	return engines
}

// xbarFabric is a hierarchical fabric with coalescing off.
func xbarFabric(engines []*sim.Engine, pesPerGPN int, p2p P2PConfig, xbar CrossbarConfig) *Hierarchical {
	return NewFabric(engines, pesPerGPN, FabricConfig{P2P: p2p, Crossbar: xbar})
}

func TestHierarchicalLocalDelivery(t *testing.T) {
	eng := sim.NewEngine()
	f := xbarFabric(sharedEngines(eng, 2), 4, P2PConfig{BytesPerCycle: 1, Latency: 10}, DefaultCrossbarConfig())
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
	f := xbarFabric(sharedEngines(eng, 2), 4, DefaultP2PConfig(), CrossbarConfig{BytesPerCycle: 2, Latency: 50})
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
	f := xbarFabric(sharedEngines(eng, 1), 2, P2PConfig{BytesPerCycle: 1, Latency: 0}, DefaultCrossbarConfig())
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
	f := xbarFabric(sharedEngines(eng, 1), 4, P2PConfig{BytesPerCycle: 1, Latency: 0}, DefaultCrossbarConfig())
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
	f := xbarFabric(sharedEngines(eng, 3), 1, DefaultP2PConfig(), CrossbarConfig{BytesPerCycle: 1, Latency: 0})
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

// TestCrossbarRouteShape: a cross-GPN message occupies exactly two
// ports, its source GPN's out-port and its destination GPN's in-port.
func TestCrossbarRouteShape(t *testing.T) {
	eng := sim.NewEngine()
	f := xbarFabric(sharedEngines(eng, 4), 1, DefaultP2PConfig(), CrossbarConfig{BytesPerCycle: 2, Latency: 50})
	f.Send(1, 3, 8, sim.HandlerFunc(func() {}))
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	for gi := range f.gpn {
		wantOut, wantIn := 0.0, 0.0
		if gi == 1 {
			wantOut = 4
		}
		if gi == 3 {
			wantIn = 4
		}
		if g := &f.gpn[gi]; g.outBusy != wantOut || g.inBusy != wantIn {
			t.Errorf("gpn%d: out-port busy %v, in-port busy %v; want %v, %v",
				gi, g.outBusy, g.inBusy, wantOut, wantIn)
		}
	}
}

// TestCrossbarLookaheadBound: the lookahead is the switch latency, and no
// cross-GPN delivery undercuts it, on a shared engine or through Exchange.
func TestCrossbarLookaheadBound(t *testing.T) {
	xbar := CrossbarConfig{BytesPerCycle: 30, Latency: 40}
	eng := sim.NewEngine()
	f := xbarFabric(sharedEngines(eng, 2), 1, DefaultP2PConfig(), xbar)
	if f.Lookahead() != xbar.Latency {
		t.Fatalf("lookahead = %d, want the switch latency %d", f.Lookahead(), xbar.Latency)
	}
	var at sim.Ticks
	f.Send(0, 1, 1, sim.HandlerFunc(func() { at = eng.Now() }))
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if at < f.Lookahead() {
		t.Fatalf("shared engine: delivered at %d, inside the lookahead %d", at, f.Lookahead())
	}

	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	f = xbarFabric(engines, 1, DefaultP2PConfig(), xbar)
	f.Send(0, 1, 1, sim.HandlerFunc(func() { at = engines[1].Now() }))
	if _, err := f.Exchange(); err != nil {
		t.Fatal(err)
	}
	if err := engines[1].RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if at < f.Lookahead() {
		t.Fatalf("exchange: delivered at %d, inside the lookahead %d", at, f.Lookahead())
	}
}

func TestIdealFabric(t *testing.T) {
	eng := sim.NewEngine()
	f := NewIdeal(sharedEngines(eng, 1), 8, 5)
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
	xbarFabric(nil, 8, DefaultP2PConfig(), DefaultCrossbarConfig())
}

func TestSubCycleMessagesUseFractionalBandwidth(t *testing.T) {
	// 8-byte messages on a 30 B/cy crossbar port: 30 of them must fit in
	// ~8 cycles of port time, not 30 cycles.
	eng := sim.NewEngine()
	f := xbarFabric(sharedEngines(eng, 2), 1, DefaultP2PConfig(), CrossbarConfig{BytesPerCycle: 30, Latency: 0})
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
	f := xbarFabric(engines, 4, DefaultP2PConfig(), CrossbarConfig{BytesPerCycle: 2, Latency: 50})
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
	f := xbarFabric(engines, 4, DefaultP2PConfig(), CrossbarConfig{BytesPerCycle: 2, Latency: 50})
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

// TestConservationInvariant drives an identical synthetic load through
// every coalescing × engine-sharing combination and asserts the fabric's
// conservation law: Messages + Coalesced == Send calls. The split between
// the two varies with timing; the sum may not.
func TestConservationInvariant(t *testing.T) {
	const gpns, pesPerGPN, vertices = 4, 2, 64
	for _, window := range []sim.Ticks{0, 8} {
		for _, shared := range []bool{true, false} {
			name := fmt.Sprintf("window%d/shared=%v", window, shared)
			var engines []*sim.Engine
			if shared {
				engines = sharedEngines(sim.NewEngine(), gpns)
			} else {
				engines = make([]*sim.Engine, gpns)
				for i := range engines {
					engines[i] = sim.NewEngine()
				}
			}
			f := NewFabric(engines, pesPerGPN, FabricConfig{
				P2P:      DefaultP2PConfig(),
				Crossbar: DefaultCrossbarConfig(),
				Coalesce: CoalesceConfig{Window: window},
				Vertices: vertices,
			})
			f.SetMerge(minMerge)
			sends := 0
			for src := 0; src < gpns*pesPerGPN; src++ {
				for dst := 0; dst < gpns*pesPerGPN; dst++ {
					if src/pesPerGPN == dst/pesPerGPN {
						continue
					}
					for k := 0; k < 3; k++ {
						b := &testBatch{msgs: []program.Message{
							{Dst: graph.VertexID((dst + k) % vertices), Delta: program.Prop(src)},
							{Dst: graph.VertexID((dst + k + 7) % vertices), Delta: program.Prop(k)},
						}}
						f.Send(src, dst, 8*len(b.msgs), b)
						sends++
					}
				}
			}
			// Drain: run every engine (flush timers live on the
			// senders), exchange buffered messages, run destinations.
			for round := 0; round < 4; round++ {
				for _, e := range engines {
					if err := e.RunUntilQuiet(0); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				if _, err := f.Exchange(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			f.Finalize()
			st := f.Stats()
			if got := st.Messages + st.Coalesced; got != uint64(sends) {
				t.Errorf("%s: messages %d + coalesced %d = %d, want %d sends",
					name, st.Messages, st.Coalesced, got, sends)
			}
			if window == 0 && st.Coalesced != 0 {
				t.Errorf("%s: coalesced %d batches with coalescing off", name, st.Coalesced)
			}
			if st.InterMessages != st.Messages {
				t.Errorf("%s: inter %d != messages %d on an all-remote load", name, st.InterMessages, st.Messages)
			}
		}
	}
}

// TestFinalizeCarriesNewFields checks that the dump-time totals include
// the coalescing counters contributed by every GPN, not just gpn0 — the
// shard-summing path of Finalize.
func TestFinalizeCarriesNewFields(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(sharedEngines(eng, 4), 1, FabricConfig{
		P2P:      DefaultP2PConfig(),
		Crossbar: CrossbarConfig{BytesPerCycle: 1, Latency: 10},
		Coalesce: CoalesceConfig{Window: 4},
		Vertices: 8,
	})
	f.SetMerge(func(a, b program.Prop) program.Prop { return a + b })
	// Two sources in different GPNs, two batches each to the same remote
	// destination: each source coalesces one batch and merges one update.
	for _, src := range []int{0, 2} {
		dst := (src + 1) % 4
		for k := 0; k < 2; k++ {
			b := &testBatch{msgs: []program.Message{{Dst: 5, Delta: 1}}}
			f.Send(src, dst, 8, b)
		}
	}
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	f.Finalize()
	if st := f.total; st.Coalesced != 2 || st.MergedUpdates != 2 {
		t.Fatalf("coalesced=%d merged=%d, want 2/2 (both GPNs summed)", st.Coalesced, st.MergedUpdates)
	}
	if st := f.total; st.BytesSaved != 16 {
		t.Fatalf("bytes_saved=%d, want 16", st.BytesSaved)
	}
	if st := f.total; st.Messages != 2 || st.InterMessages != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if n := f.msgBytesTotal.N(); n != 2 {
		t.Fatalf("message_bytes holds %d samples, want 2 (both GPNs merged)", n)
	}
}
