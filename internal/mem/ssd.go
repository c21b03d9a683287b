package mem

import (
	"fmt"

	"nova/internal/sim"
	"nova/internal/stats"
)

// SSDConfig describes the timing of one SSD used as the third memory tier
// (DESIGN.md §18): graph partitions beyond the DRAM-resident window are
// paged in at page granularity through a fixed per-request latency, a
// bandwidth-serialized transfer, and a bounded submission queue.
type SSDConfig struct {
	// Name labels the device in statistics output.
	Name string
	// PageBytes is the device's read granularity; requests are rounded up
	// to whole pages.
	PageBytes int
	// BytesPerCycle is the sustained read rate expressed in bytes per core
	// clock cycle.
	BytesPerCycle float64
	// FixedLatency is the per-request access latency (FTL lookup, NAND
	// read, protocol) added after the transfer's queue slot.
	FixedLatency sim.Ticks
	// QueueDepth is the number of requests the device overlaps: each of
	// the QueueDepth slots serializes its own transfers, so up to
	// QueueDepth latencies are hidden behind one another while the
	// aggregate rate stays bandwidth-bound.
	QueueDepth int
}

// Validate reports a configuration error, if any.
func (c SSDConfig) Validate() error {
	if c.PageBytes <= 0 {
		return fmt.Errorf("mem: ssd %q: PageBytes must be positive", c.Name)
	}
	if c.BytesPerCycle <= 0 {
		return fmt.Errorf("mem: ssd %q: BytesPerCycle must be positive", c.Name)
	}
	if c.FixedLatency < 0 {
		return fmt.Errorf("mem: ssd %q: FixedLatency must be non-negative", c.Name)
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("mem: ssd %q: QueueDepth must be positive", c.Name)
	}
	return nil
}

// SSDStats accumulates traffic accounting for one device.
type SSDStats struct {
	// PageIns counts read requests (one per partition page-in event).
	PageIns uint64
	// BytesPaged is the page-rounded data volume read.
	BytesPaged uint64
	// BusyTicks is the aggregate transfer occupancy across queue slots.
	BusyTicks sim.Ticks
	// QueueStallTicks accumulates time requests waited for a free queue
	// slot before their transfer could start.
	QueueStallTicks sim.Ticks
	LastCompletion  sim.Ticks
}

// SSD models the device: each read occupies the earliest-free of
// QueueDepth slots for its bandwidth-limited transfer time and completes
// FixedLatency later. Slots are chosen lowest-index-first on ties, so the
// model is deterministic under sharded simulation (one SSD per GPN, each
// driven only by its shard's engine). A model clocked without an engine
// (eng nil) issues its reads through ReadAt.
type SSD struct {
	eng      *sim.Engine
	cfg      SSDConfig
	slotFree []sim.Ticks
	stats    SSDStats
	// reqBytes buckets per-request page-rounded sizes (log2).
	reqBytes stats.Histogram
}

// NewSSD builds a device on the given engine. It panics on an invalid
// configuration, which is always a programming error in system assembly.
func NewSSD(eng *sim.Engine, cfg SSDConfig) *SSD {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &SSD{eng: eng, cfg: cfg, slotFree: make([]sim.Ticks, cfg.QueueDepth)}
}

// Config returns the device's configuration.
func (d *SSD) Config() SSDConfig { return d.cfg }

// Stats returns a copy of the accumulated statistics.
func (d *SSD) Stats() SSDStats { return d.stats }

// PageIn reads the pages covering [addr, addr+bytes) now and returns the
// completion time; done (if non-nil) is scheduled at that time.
func (d *SSD) PageIn(addr uint64, bytes int, done sim.Handler) sim.Ticks {
	complete := d.ReadAt(d.eng.Now(), addr, bytes)
	if done != nil {
		d.eng.ScheduleAt(complete, done)
	}
	return complete
}

// ReadAt reads the pages covering [addr, addr+bytes), issued at tick now,
// and returns the completion time.
func (d *SSD) ReadAt(now sim.Ticks, addr uint64, bytes int) sim.Ticks {
	if bytes <= 0 {
		panic(fmt.Sprintf("mem: ssd page-in of %d bytes", bytes))
	}
	first := addr / uint64(d.cfg.PageBytes)
	last := (addr + uint64(bytes) - 1) / uint64(d.cfg.PageBytes)
	moved := (last - first + 1) * uint64(d.cfg.PageBytes)
	d.reqBytes.Observe(moved)

	service := sim.Ticks(float64(moved)/d.cfg.BytesPerCycle + 0.999999)
	if service == 0 {
		service = 1
	}
	slot := 0
	for i := 1; i < len(d.slotFree); i++ {
		if d.slotFree[i] < d.slotFree[slot] {
			slot = i
		}
	}
	start := now
	if d.slotFree[slot] > start {
		start = d.slotFree[slot]
		d.stats.QueueStallTicks += start - now
	}
	d.slotFree[slot] = start + service
	d.stats.BusyTicks += service
	complete := start + service + d.cfg.FixedLatency

	d.stats.PageIns++
	d.stats.BytesPaged += moved
	if complete > d.stats.LastCompletion {
		d.stats.LastCompletion = complete
	}
	return complete
}

// RegisterStats registers the device's counters, derived utilization and
// request-size histogram under g, following the Channel idiom: plain
// counters adopted by pointer, derived values as dump-time formulas.
func (d *SSD) RegisterStats(g *stats.Group) {
	g.Uint64(&d.stats.PageIns, "page_ins", stats.Count, "partition page-in requests serviced")
	g.Uint64(&d.stats.BytesPaged, "bytes_paged", stats.Bytes, "page-rounded bytes read from the device")
	g.Formula(func() float64 { return float64(d.stats.BusyTicks) },
		"busy_cycles", stats.Cycles, "aggregate cycles queue slots spent transferring")
	g.Formula(func() float64 { return float64(d.stats.QueueStallTicks) },
		"queue_stall_cycles", stats.Cycles, "cycles requests waited for a free queue slot")
	g.Formula(func() float64 { return d.Utilization(d.eng.Now()) },
		"utilization", stats.Ratio, "achieved fraction of peak read bandwidth over the run")
	g.Histogram(&d.reqBytes, "request_bytes", stats.Bytes, "per-request page-rounded size (log2 buckets)")
}

// Utilization returns the fraction of the device's peak bandwidth consumed
// over the first `elapsed` ticks of the run.
func (d *SSD) Utilization(elapsed sim.Ticks) float64 {
	if elapsed == 0 {
		return 0
	}
	peak := float64(elapsed) * d.cfg.BytesPerCycle
	return float64(d.stats.BytesPaged) / peak
}

// Standard presets at a 2 GHz core clock, following the Table II idiom.

// NVMeSSDConfig models a datacenter NVMe drive: 4 KiB pages, ~3.2 GB/s
// sustained reads (1.6 B/cycle at 2 GHz), ~10 µs access latency, 16-deep
// queue.
func NVMeSSDConfig(name string) SSDConfig {
	return SSDConfig{
		Name:          name,
		PageBytes:     4096,
		BytesPerCycle: 1.6,
		FixedLatency:  20000, // 10 µs at 2 GHz
		QueueDepth:    16,
	}
}

// SATASSDConfig models a SATA drive: 4 KiB pages, ~550 MB/s (0.275
// B/cycle), ~80 µs access latency, 8-deep queue.
func SATASSDConfig(name string) SSDConfig {
	return SSDConfig{
		Name:          name,
		PageBytes:     4096,
		BytesPerCycle: 0.275,
		FixedLatency:  160000, // 80 µs at 2 GHz
		QueueDepth:    8,
	}
}
