package mem

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nova/internal/sim"
)

func testChannelConfig() ChannelConfig {
	return ChannelConfig{
		Name:          "test",
		AtomBytes:     32,
		BytesPerCycle: 16,
		FixedLatency:  100,
	}
}

func TestChannelSingleAccessLatency(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannel(eng, testChannelConfig())
	var done sim.Ticks
	ch.Access(Request{Addr: 0, Bytes: 32, Kind: UsefulRead, Done: sim.HandlerFunc(func() { done = eng.Now() })})
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	// 32 B at 16 B/cycle = 2 cycles service + 100 fixed = 102.
	if done != 102 {
		t.Fatalf("completion at %d, want 102", done)
	}
}

func TestChannelBandwidthBound(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannel(eng, testChannelConfig())
	const n = 1000
	var last sim.Ticks
	for i := 0; i < n; i++ {
		addr := uint64(i * 32)
		ch.Access(Request{Addr: addr, Bytes: 32, Kind: UsefulRead, Done: sim.HandlerFunc(func() { last = eng.Now() })})
	}
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	// n atoms at 2 cycles each, pipelined: last completes at 2n + 100.
	want := sim.Ticks(2*n + 100)
	if last != want {
		t.Fatalf("last completion %d, want %d (bandwidth-bound pipelining)", last, want)
	}
	util := ch.Utilization(2 * n)
	if util < 0.99 || util > 1.01 {
		t.Fatalf("utilization %v, want ~1.0", util)
	}
}

func TestChannelMultiAtomRequest(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannel(eng, testChannelConfig())
	// 33 bytes starting at addr 0 spans 2 atoms.
	var done sim.Ticks
	ch.Access(Request{Addr: 0, Bytes: 33, Kind: UsefulRead, Done: sim.HandlerFunc(func() { done = eng.Now() })})
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	if done != 104 {
		t.Fatalf("completion %d, want 104 (2 atoms)", done)
	}
	if got := ch.Stats().UsefulBytes; got != 64 {
		t.Fatalf("UsefulBytes = %d, want 64 (whole atoms move)", got)
	}
	// Unaligned request spanning a boundary: 32 bytes at addr 16.
	ch2 := NewChannel(sim.NewEngine(), testChannelConfig())
	if _, got := ch2.atoms(16, 32); got != 2 {
		t.Fatalf("atoms(16,32) = %d, want 2", got)
	}
}

func TestChannelRowBuffer(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testChannelConfig()
	cfg.RowBytes = 1024
	cfg.RowMissPenalty = 10
	ch := NewChannel(eng, cfg)
	// Sequential accesses within one row: 1 miss then hits.
	for i := 0; i < 32; i++ {
		ch.Access(Request{Addr: uint64(i * 32), Bytes: 32, Kind: UsefulRead})
	}
	st := ch.Stats()
	if st.RowMisses != 1 || st.RowHits != 31 {
		t.Fatalf("row stats = %d misses / %d hits, want 1/31", st.RowMisses, st.RowHits)
	}
	// Random far-apart rows: all misses.
	eng2 := sim.NewEngine()
	ch2 := NewChannel(eng2, cfg)
	for i := 0; i < 8; i++ {
		ch2.Access(Request{Addr: uint64(i) * 1024 * 7, Bytes: 32, Kind: UsefulRead})
	}
	if st := ch2.Stats(); st.RowMisses != 8 {
		t.Fatalf("far accesses: %d row misses, want 8", st.RowMisses)
	}
}

func TestChannelKindsAccounting(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannel(eng, testChannelConfig())
	ch.Access(Request{Addr: 0, Bytes: 32, Kind: UsefulRead})
	ch.Access(Request{Addr: 32, Bytes: 32, Kind: WastefulRead})
	ch.Access(Request{Addr: 64, Bytes: 32, Kind: WriteAccess})
	st := ch.Stats()
	if st.UsefulBytes != 32 || st.WastefulBytes != 32 || st.WrittenBytes != 32 {
		t.Fatalf("accounting wrong: %+v", st)
	}
	if st.Reads != 2 || st.Writes != 1 {
		t.Fatalf("ops wrong: %+v", st)
	}
	if st.TotalBytes() != 96 {
		t.Fatalf("TotalBytes = %d, want 96", st.TotalBytes())
	}
}

func TestChannelConfigValidation(t *testing.T) {
	bad := []ChannelConfig{
		{AtomBytes: 0, BytesPerCycle: 1},
		{AtomBytes: 32, BytesPerCycle: 0},
		{AtomBytes: 32, BytesPerCycle: 1, RowBytes: 16},
		{AtomBytes: 48, BytesPerCycle: 1},
		{AtomBytes: 32, BytesPerCycle: 1, RowBytes: 1536},
		{AtomBytes: 32, BytesPerCycle: 1, RowBytes: 1024, Banks: 6},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated but should not: %+v", i, cfg)
		}
	}
	if err := HBM2ChannelConfig("h").Validate(); err != nil {
		t.Errorf("HBM2 preset invalid: %v", err)
	}
	if err := DDR4ChannelConfig("d").Validate(); err != nil {
		t.Errorf("DDR4 preset invalid: %v", err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1024, 32) // 32 lines
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	c.Fill(0)
	if !c.Access(0) {
		t.Fatal("filled block missed")
	}
	if !c.Access(31) {
		t.Fatal("same block, different offset missed")
	}
	if c.Access(32) {
		t.Fatal("next block hit without fill")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheEvictionHook(t *testing.T) {
	c := NewCache(64, 32) // 2 lines
	var evictions []uint64
	var dirtiness []bool
	c.OnEvict = func(addr uint64, dirty bool) {
		evictions = append(evictions, addr)
		dirtiness = append(dirtiness, dirty)
	}
	c.Fill(0)
	c.MarkDirty(0)
	// Block 64 maps to the same line as block 0 (2 lines, 32B blocks).
	evicted, dirty, had := c.Fill(64)
	if !had || evicted != 0 || !dirty {
		t.Fatalf("Fill(64) eviction = (%d, %v, %v), want (0, true, true)", evicted, dirty, had)
	}
	if len(evictions) != 1 || evictions[0] != 0 || !dirtiness[0] {
		t.Fatalf("hook saw %v/%v", evictions, dirtiness)
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Fatalf("dirty evictions = %d", c.Stats().DirtyEvictions)
	}
}

func TestCacheMarkDirtyNonResident(t *testing.T) {
	c := NewCache(64, 32) // 2 lines
	c.Fill(0)
	// Block 128 maps to block 0's line but is not resident.
	if c.MarkDirty(128) {
		t.Fatal("MarkDirty on a non-resident block reported it resident")
	}
	if _, dirty, _ := c.Fill(64); dirty {
		t.Fatal("MarkDirty on a non-resident block dirtied its line's occupant")
	}
	if !c.MarkDirty(64) {
		t.Fatal("MarkDirty on a resident block reported it absent")
	}
}

func TestCacheFlushAll(t *testing.T) {
	c := NewCache(128, 32)
	var flushed int
	c.OnEvict = func(addr uint64, dirty bool) { flushed++ }
	c.Fill(0)
	c.Fill(32)
	c.MarkDirty(32)
	c.FlushAll()
	if flushed != 2 {
		t.Fatalf("flushed %d blocks, want 2", flushed)
	}
	if c.Contains(0) || c.Contains(32) {
		t.Fatal("blocks still resident after FlushAll")
	}
}

func TestCacheResidencyProperty(t *testing.T) {
	// Property: under any sequence of Access, Fill, MarkDirty and
	// FlushAll, the cache agrees with a model map from line index to
	// resident block: every lookup, every eviction and its dirtiness,
	// the counters, and Contains over the whole address range. The
	// 1,536-line cache (48 KiB of 32 B blocks, a legal
	// cache_bytes_per_pe) and the 3-line one take the modulo path.
	type entry struct {
		block uint64
		dirty bool
	}
	for _, lines := range []int{16, 3, 1536} {
		t.Run(fmt.Sprintf("%d_lines", lines), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				c := NewCache(lines*32, 32)
				var evicted []entry
				c.OnEvict = func(addr uint64, dirty bool) { evicted = append(evicted, entry{addr / 32, dirty}) }
				model := map[int]entry{}
				var want CacheStats
				blocks := 4 * lines
				for i := 0; i < 20*lines+300; i++ {
					addr := uint64(rng.Intn(blocks * 32))
					block := addr / 32
					line := int(block % uint64(lines))
					old, resident := model[line]
					resident = resident && old.block == block
					evicted = evicted[:0]
					switch op := rng.Intn(100); {
					case op < 40:
						if c.Access(addr) != resident {
							return false
						}
						if resident {
							want.Hits++
						} else {
							want.Misses++
						}
					case op < 75:
						got, gotDirty, had := c.Fill(addr)
						if resident {
							if had || len(evicted) != 0 {
								return false
							}
							break
						}
						if _, occupied := model[line]; occupied {
							if !had || got != old.block*32 || gotDirty != old.dirty ||
								len(evicted) != 1 || evicted[0] != old {
								return false
							}
							want.Evictions++
							if old.dirty {
								want.DirtyEvictions++
							}
						} else if had || len(evicted) != 0 {
							return false
						}
						model[line] = entry{block: block}
					case op < 99:
						if c.MarkDirty(addr) != resident {
							return false
						}
						if resident {
							model[line] = entry{block, true}
						}
					default:
						c.FlushAll()
						if len(evicted) != len(model) {
							return false
						}
						for _, e := range evicted {
							if model[int(e.block%uint64(lines))] != e {
								return false
							}
							want.Evictions++
							if e.dirty {
								want.DirtyEvictions++
							}
						}
						clear(model)
					}
				}
				if c.Stats() != want {
					return false
				}
				for b := 0; b < blocks; b++ {
					e, ok := model[b%lines]
					if c.Contains(uint64(b)*32+31) != (ok && e.block == uint64(b)) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	for _, geom := range [][2]int{{0, 32}, {64, 0}, {100, 32}, {96, 48}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d,%d) did not panic", geom[0], geom[1])
				}
			}()
			NewCache(geom[0], geom[1])
		}()
	}
}

func TestBulkTransfer(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannel(eng, testChannelConfig())
	// 1600 bytes at 16 B/cy = 100 cycles service + 100 fixed latency.
	done := ch.BulkTransfer(1600, WriteAccess)
	if done != 200 {
		t.Fatalf("bulk completion = %d, want 200", done)
	}
	if st := ch.Stats(); st.WrittenBytes != 1600 {
		t.Fatalf("written = %d", st.WrittenBytes)
	}
	// A second transfer queues behind the first's bus time.
	done2 := ch.BulkTransfer(160, UsefulRead)
	if done2 != 210 {
		t.Fatalf("queued bulk completion = %d, want 210", done2)
	}
	// Zero bytes: no-op at current time.
	if got := ch.BulkTransfer(0, UsefulRead); got != eng.Now() {
		t.Fatalf("zero bulk = %d", got)
	}
}

func TestRowMissAddsLatencyNotBusTime(t *testing.T) {
	// Bank-level parallelism: random accesses on different rows must
	// still pipeline at bus rate; only per-request latency grows.
	eng := sim.NewEngine()
	cfg := testChannelConfig()
	cfg.RowBytes = 1024
	cfg.RowMissPenalty = 50
	ch := NewChannel(eng, cfg)
	var last sim.Ticks
	const n = 100
	for i := 0; i < n; i++ {
		// 7 KiB stride: every access misses the row buffer.
		ch.Access(Request{Addr: uint64(i) * 7168, Bytes: 32, Kind: UsefulRead,
			Done: sim.HandlerFunc(func() { last = eng.Now() })})
	}
	if err := eng.RunUntilQuiet(0); err != nil {
		t.Fatal(err)
	}
	// Bus-bound: n*2 cycles of service, + fixed 100 + one miss penalty 50.
	want := sim.Ticks(n*2 + 100 + 50)
	if last != want {
		t.Fatalf("last completion %d, want %d (row misses must not serialize the bus)", last, want)
	}
	if ch.Stats().RowMisses != n {
		t.Fatalf("row misses = %d, want %d", ch.Stats().RowMisses, n)
	}
}

func TestBankedRowBuffers(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testChannelConfig()
	cfg.RowBytes = 1024
	cfg.RowMissPenalty = 10
	cfg.Banks = 4
	ch := NewChannel(eng, cfg)
	// Alternate between two rows mapping to different banks: after the
	// first touch of each, both stay open — all hits.
	for i := 0; i < 10; i++ {
		ch.Access(Request{Addr: 0, Bytes: 32, Kind: UsefulRead})
		ch.Access(Request{Addr: 1024, Bytes: 32, Kind: UsefulRead})
	}
	st := ch.Stats()
	if st.RowMisses != 2 || st.RowHits != 18 {
		t.Fatalf("banked: %d misses / %d hits, want 2/18", st.RowMisses, st.RowHits)
	}
	// A single-bank channel thrashes the same pattern.
	eng2 := sim.NewEngine()
	cfg.Banks = 1
	ch2 := NewChannel(eng2, cfg)
	for i := 0; i < 10; i++ {
		ch2.Access(Request{Addr: 0, Bytes: 32, Kind: UsefulRead})
		ch2.Access(Request{Addr: 1024, Bytes: 32, Kind: UsefulRead})
	}
	if st := ch2.Stats(); st.RowMisses != 20 {
		t.Fatalf("single bank should thrash: %d misses, want 20", st.RowMisses)
	}
}

// refChannel is the per-atom Channel.Access loop that the shift-and-mask
// row walk replaced, kept as the reference the walk must match: it
// divides every address by the atom and row sizes and steps the row
// buffers once per atom.
type refChannel struct {
	cfg      ChannelConfig
	nextFree sim.Ticks
	openRow  []uint64
	hasRow   []bool
	stats    ChannelStats
}

func newRefChannel(cfg ChannelConfig) *refChannel {
	banks := cfg.Banks
	if banks < 1 {
		banks = 1
	}
	return &refChannel{cfg: cfg, openRow: make([]uint64, banks), hasRow: make([]bool, banks)}
}

func (c *refChannel) access(now sim.Ticks, req Request) sim.Ticks {
	atom := uint64(c.cfg.AtomBytes)
	n := int((req.Addr+uint64(req.Bytes)-1)/atom-req.Addr/atom) + 1
	moved := uint64(n * c.cfg.AtomBytes)
	service := sim.Ticks(0)
	extraLatency := sim.Ticks(0)
	for i := 0; i < n; i++ {
		atomAddr := (req.Addr/atom + uint64(i)) * atom
		t := sim.Ticks(float64(c.cfg.AtomBytes)/c.cfg.BytesPerCycle + 0.999999)
		if t == 0 {
			t = 1
		}
		if c.cfg.RowBytes > 0 {
			row := atomAddr / uint64(c.cfg.RowBytes)
			bank := int(row % uint64(len(c.openRow)))
			if c.hasRow[bank] && row == c.openRow[bank] {
				c.stats.RowHits++
			} else {
				c.stats.RowMisses++
				if c.cfg.RowMissPenalty > extraLatency {
					extraLatency = c.cfg.RowMissPenalty
				}
			}
			c.openRow[bank] = row
			c.hasRow[bank] = true
		}
		service += t
	}
	start := now
	if c.nextFree > start {
		start = c.nextFree
	}
	c.nextFree = start + service
	c.stats.BusyTicks += service
	complete := start + service + c.cfg.FixedLatency + extraLatency
	switch req.Kind {
	case UsefulRead:
		c.stats.Reads++
		c.stats.UsefulBytes += moved
	case WastefulRead:
		c.stats.Reads++
		c.stats.WastefulBytes += moved
	case WriteAccess:
		c.stats.Writes++
		c.stats.WrittenBytes += moved
	}
	if complete > c.stats.LastCompletion {
		c.stats.LastCompletion = complete
	}
	return complete
}

// TestChannelMatchesPerAtomReference feeds identical random request
// streams to a Channel and to refChannel and requires the same
// completion tick and the same counters after every request. The
// simulated machine never sends a request that spans rows (edge chunks
// stop at 4 KiB page boundaries, vertex blocks are 32 B), so this test is
// what exercises the multi-row walk: unaligned requests of 1 B to 16 KiB
// cross row and bank boundaries on every geometry below.
func TestChannelMatchesPerAtomReference(t *testing.T) {
	var cfgs []ChannelConfig
	for _, banks := range []int{1, 4, 16} {
		for _, row := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10} {
			for _, atom := range []int{32, 64} {
				cfgs = append(cfgs, ChannelConfig{
					Name:           fmt.Sprintf("b%d-r%d-a%d", banks, row, atom),
					AtomBytes:      atom,
					BytesPerCycle:  []float64{16, 9.6, 3, 100}[len(cfgs)%4],
					FixedLatency:   100,
					RowBytes:       row,
					RowMissPenalty: 24,
					Banks:          banks,
				})
			}
		}
	}
	cfgs = append(cfgs, HBM2ChannelConfig("hbm2"), DDR4ChannelConfig("ddr4"), testChannelConfig())
	for i, cfg := range cfgs {
		t.Run(cfg.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i + 1)))
			eng := sim.NewEngine()
			ch := NewChannel(eng, cfg)
			ref := newRefChannel(cfg)
			const requests = 2000
			issued, multiRow := 0, 0
			var next uint64
			var step sim.HandlerFunc
			step = func() {
				// Half the requests continue near the previous one, so
				// open rows get reused; the rest land anywhere in 8 MiB.
				addr := uint64(rng.Intn(8 << 20))
				if rng.Intn(2) == 0 {
					addr = next + uint64(rng.Intn(256))
				}
				bytes := 1 + rng.Intn(1<<rng.Intn(15))
				next = addr + uint64(bytes)
				req := Request{Addr: addr, Bytes: bytes, Kind: AccessKind(rng.Intn(3))}
				if cfg.RowBytes > 0 && addr/uint64(cfg.RowBytes) != (next-1)/uint64(cfg.RowBytes) {
					multiRow++
				}
				want := ref.access(eng.Now(), req)
				if got := ch.Access(req); got != want {
					t.Fatalf("request %d %+v: completes at %d, reference %d", issued, req, got, want)
				}
				if got := ch.Stats(); got != ref.stats {
					t.Fatalf("request %d %+v: stats %+v, reference %+v", issued, req, got, ref.stats)
				}
				if issued++; issued < requests {
					eng.Schedule(sim.Ticks(rng.Intn(400)), step)
				}
			}
			eng.Schedule(0, step)
			if err := eng.RunUntilQuiet(0); err != nil {
				t.Fatal(err)
			}
			if issued != requests {
				t.Fatalf("issued %d of %d requests", issued, requests)
			}
			if cfg.RowBytes > 0 && multiRow < requests/20 {
				t.Fatalf("only %d of %d requests spanned rows", multiRow, requests)
			}
		})
	}
}
