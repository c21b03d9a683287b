package mem

import (
	"testing"

	"nova/internal/sim"
)

func testSSDConfig() SSDConfig {
	return SSDConfig{Name: "t", PageBytes: 4096, BytesPerCycle: 2, FixedLatency: 1000, QueueDepth: 2}
}

func TestSSDSingleRequestLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := NewSSD(eng, testSSDConfig())
	// One 4 KiB page: 4096/2 = 2048 transfer cycles + 1000 fixed latency.
	done := d.PageIn(0, 100, nil)
	if want := sim.Ticks(2048 + 1000); done != want {
		t.Fatalf("completion %d, want %d", done, want)
	}
	st := d.Stats()
	if st.PageIns != 1 || st.BytesPaged != 4096 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSSDPageRounding(t *testing.T) {
	eng := sim.NewEngine()
	d := NewSSD(eng, testSSDConfig())
	// Straddling a page boundary reads both pages.
	d.PageIn(4090, 10, nil)
	if st := d.Stats(); st.BytesPaged != 8192 {
		t.Fatalf("bytes paged %d, want 8192", st.BytesPaged)
	}
}

func TestSSDQueueDepthOverlap(t *testing.T) {
	eng := sim.NewEngine()
	d := NewSSD(eng, testSSDConfig())
	// Queue depth 2: the first two requests start immediately on separate
	// slots; the third waits for a slot and records the stall.
	t1 := d.PageIn(0, 4096, nil)
	t2 := d.PageIn(4096, 4096, nil)
	if t1 != t2 {
		t.Fatalf("two slots must overlap fully: %d vs %d", t1, t2)
	}
	t3 := d.PageIn(8192, 4096, nil)
	if want := t1 + 2048; t3 != want {
		t.Fatalf("third request must queue behind a slot: %d, want %d", t3, want)
	}
	if st := d.Stats(); st.QueueStallTicks != 2048 {
		t.Fatalf("queue stall %d, want 2048", st.QueueStallTicks)
	}
}

func TestSSDDoneHandlerFires(t *testing.T) {
	eng := sim.NewEngine()
	d := NewSSD(eng, testSSDConfig())
	fired := sim.Ticks(0)
	want := d.PageIn(0, 1, sim.HandlerFunc(func() { fired = eng.Now() }))
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if fired != want {
		t.Fatalf("done fired at %d, want %d", fired, want)
	}
}

func TestSSDPresetsValidate(t *testing.T) {
	for _, cfg := range []SSDConfig{NVMeSSDConfig("nvme"), SATASSDConfig("sata")} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	bad := testSSDConfig()
	bad.QueueDepth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero queue depth accepted")
	}
}
