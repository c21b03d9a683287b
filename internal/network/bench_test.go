package network

import (
	"testing"

	"nova/internal/sim"
	"nova/program"
)

// arrivalCounter is a pre-allocated delivery handler, the pattern the PE
// message-generation unit uses for every fabric send.
type arrivalCounter struct{ n int }

func (c *arrivalCounter) Fire() { c.n++ }

// BenchmarkHierarchicalSend measures the enqueue path for local (same-GPN)
// sends with a pooled delivery handler. It must be allocation-free.
func BenchmarkHierarchicalSend(b *testing.B) {
	eng := sim.NewEngine()
	f := xbarFabric(sharedEngines(eng, 2), 4, DefaultP2PConfig(), DefaultCrossbarConfig())
	done := &arrivalCounter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(0, 1, 64, done)
		if i%1024 == 1023 {
			if err := eng.RunUntilQuiet(0); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := eng.RunUntilQuiet(0); err != nil {
		b.Fatal(err)
	}
	if done.n != b.N {
		b.Fatalf("delivered %d of %d messages", done.n, b.N)
	}
}

// BenchmarkHierarchicalSendInterGPN measures cross-GPN sends, which pay
// two crossbar port stages on top of the P2P links.
func BenchmarkHierarchicalSendInterGPN(b *testing.B) {
	eng := sim.NewEngine()
	f := xbarFabric(sharedEngines(eng, 2), 4, DefaultP2PConfig(), DefaultCrossbarConfig())
	done := &arrivalCounter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(0, 5, 64, done)
		if i%1024 == 1023 {
			if err := eng.RunUntilQuiet(0); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := eng.RunUntilQuiet(0); err != nil {
		b.Fatal(err)
	}
	if done.n != b.N {
		b.Fatalf("delivered %d of %d messages", done.n, b.N)
	}
}

// fabricGPNs is the fabric size of the send and exchange paths, the
// largest machine the experiments run.
const fabricGPNs = 8

// sendBody sends one message from GPN 0 to the last GPN through the
// shared-engine fast path (out-port and in-port reservation, delivery
// event) and drains the engine, so the event pool recycles.
func sendBody(tb testing.TB) func() {
	eng := sim.NewEngine()
	f := xbarFabric(sharedEngines(eng, fabricGPNs), 1, DefaultP2PConfig(), DefaultCrossbarConfig())
	done := &arrivalCounter{}
	return func() {
		f.Send(0, fabricGPNs-1, 8, done)
		if err := eng.RunUntilQuiet(0); err != nil {
			tb.Fatal(err)
		}
	}
}

// exchangeBody is the sharded path: Send parks the message in the source
// shard's outbox, and Exchange reserves the in-port and schedules the
// delivery on the destination shard.
func exchangeBody(tb testing.TB) func() {
	engines := make([]*sim.Engine, fabricGPNs)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	f := xbarFabric(engines, 1, DefaultP2PConfig(), DefaultCrossbarConfig())
	done := &arrivalCounter{}
	dst := fabricGPNs - 1
	return func() {
		f.Send(0, dst, 8, done)
		if _, err := f.Exchange(); err != nil {
			tb.Fatal(err)
		}
		if err := engines[dst].RunUntilQuiet(0); err != nil {
			tb.Fatal(err)
		}
	}
}

// coalesceBody is the absorb path: the second batch merges into the
// buffered head through the vertex index, and the window timer flushes
// the pair as one fabric message.
func coalesceBody(tb testing.TB) (*Hierarchical, func()) {
	eng := sim.NewEngine()
	f := NewFabric(sharedEngines(eng, 2), 1, FabricConfig{
		P2P:      DefaultP2PConfig(),
		Crossbar: DefaultCrossbarConfig(),
		Coalesce: CoalesceConfig{Window: 8},
		Vertices: 8,
	})
	f.SetMerge(minMerge)
	b1 := &testBatch{msgs: make([]program.Message, 0, 4)}
	b2 := &testBatch{msgs: make([]program.Message, 0, 4)}
	return f, func() {
		b1.msgs = append(b1.msgs[:0], program.Message{Dst: 1, Delta: 5})
		b2.msgs = append(b2.msgs[:0], program.Message{Dst: 1, Delta: 3})
		f.Send(0, 1, 8, b1)
		f.Send(0, 1, 8, b2)
		if err := eng.RunUntilQuiet(0); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchBody(b *testing.B, body func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

func BenchmarkFabricSend(b *testing.B) { benchBody(b, sendBody(b)) }

func BenchmarkFabricExchange(b *testing.B) { benchBody(b, exchangeBody(b)) }

// BenchmarkCoalesceAbsorb reports ns/op per pair of offered batches.
func BenchmarkCoalesceAbsorb(b *testing.B) {
	_, body := coalesceBody(b)
	benchBody(b, body)
}

// TestFabricAllocs pins the fabric's send, exchange and coalescing paths
// at zero allocations in steady state.
func TestFabricAllocs(t *testing.T) {
	noAllocs := func(t *testing.T, body func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, body); allocs != 0 {
			t.Errorf("%v allocations per iteration, want 0", allocs)
		}
	}
	t.Run("send/crossbar", func(t *testing.T) { noAllocs(t, sendBody(t)) })
	t.Run("exchange/crossbar", func(t *testing.T) { noAllocs(t, exchangeBody(t)) })
	t.Run("coalesce", func(t *testing.T) {
		f, body := coalesceBody(t)
		noAllocs(t, body)
		// AllocsPerRun makes one warm-up call before its 100 runs.
		if st := f.Stats(); st.MergedUpdates != 101 {
			t.Errorf("merged %d updates in 101 iterations, want one per iteration", st.MergedUpdates)
		}
	})
}
