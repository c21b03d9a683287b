// Package mem provides timing models for the off-chip memories and the
// per-PE vertex cache used by NOVA and the PolyGraph baseline.
//
// The models are timing-only: functional state (vertex properties, edge
// arrays) lives in ordinary Go slices owned by the accelerator model, and
// the memory models see only addresses and sizes. This mirrors the paper's
// gem5 methodology, where validated DRAM timing models are driven by the
// accelerator SimObjects.
package mem

import (
	"fmt"

	"nova/internal/sim"
	"nova/internal/stats"
)

// AccessKind classifies a request for the bandwidth breakdown of Fig. 10.
type AccessKind int

const (
	// UsefulRead is a read of data the accelerator needed (a vertex being
	// reduced or propagated, or edge data).
	UsefulRead AccessKind = iota
	// WastefulRead is a read performed only because the vertex tracker
	// locates active vertices at superblock granularity: inactive blocks
	// read while searching for active ones.
	WastefulRead
	// WriteAccess is any write (vertex write-back or spill).
	WriteAccess
)

func (k AccessKind) String() string {
	switch k {
	case UsefulRead:
		return "useful-read"
	case WastefulRead:
		return "wasteful-read"
	case WriteAccess:
		return "write"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// Request is one memory access. Done, if non-nil, fires at completion
// time. It is a sim.Handler so callers can pass a pre-allocated completion
// object and keep the request path allocation-free; ad-hoc callers can wrap
// a closure in sim.HandlerFunc.
type Request struct {
	Addr  uint64
	Bytes int
	Kind  AccessKind
	Done  sim.Handler
}

// ChannelConfig describes the timing of one DRAM channel.
type ChannelConfig struct {
	// Name labels the channel in statistics output.
	Name string
	// AtomBytes is the minimum access granularity (32 B for HBM2,
	// 64 B for DDR4), a power of two.
	AtomBytes int
	// BytesPerCycle is the peak data rate expressed in bytes per core
	// clock cycle.
	BytesPerCycle float64
	// FixedLatency is the pipelined access latency added on top of the
	// bandwidth-limited service time.
	FixedLatency sim.Ticks
	// RowBytes is the row-buffer size, a power of two no smaller than
	// AtomBytes; consecutive accesses within one row avoid
	// RowMissPenalty. Zero disables the row-buffer model.
	RowBytes int
	// RowMissPenalty is added to access latency on a row-buffer miss.
	RowMissPenalty sim.Ticks
	// Banks is the number of independent banks, zero or a power of two;
	// rows are interleaved across banks at row granularity and each bank
	// keeps its own open row. Zero or one models a single row register.
	Banks int
}

// Validate reports a configuration error, if any. Atom, row and bank
// sizes must be powers of two, so Access splits addresses by shift and
// mask.
func (c ChannelConfig) Validate() error {
	if !isPow2(c.AtomBytes) {
		return fmt.Errorf("mem: channel %q: AtomBytes %d must be a power of two", c.Name, c.AtomBytes)
	}
	if c.BytesPerCycle <= 0 {
		return fmt.Errorf("mem: channel %q: BytesPerCycle must be positive", c.Name)
	}
	if c.RowBytes != 0 && (!isPow2(c.RowBytes) || c.RowBytes < c.AtomBytes) {
		return fmt.Errorf("mem: channel %q: RowBytes %d invalid for atom %d", c.Name, c.RowBytes, c.AtomBytes)
	}
	if c.Banks != 0 && !isPow2(c.Banks) {
		return fmt.Errorf("mem: channel %q: Banks %d must be zero or a power of two", c.Name, c.Banks)
	}
	return nil
}

// ChannelStats accumulates traffic accounting for one channel.
type ChannelStats struct {
	Reads          uint64
	Writes         uint64
	UsefulBytes    uint64
	WastefulBytes  uint64
	WrittenBytes   uint64
	RowHits        uint64
	RowMisses      uint64
	BusyTicks      sim.Ticks
	LastCompletion sim.Ticks
}

// TotalBytes is all data moved over the channel.
func (s ChannelStats) TotalBytes() uint64 {
	return s.UsefulBytes + s.WastefulBytes + s.WrittenBytes
}

// Channel models one DRAM channel: requests are serialized onto the data
// bus (bandwidth limit) and complete a fixed latency after their bus slot,
// so many outstanding requests pipeline down to the bandwidth bound —
// the behaviour NOVA's latency-hiding design depends on.
type Channel struct {
	eng      *sim.Engine
	cfg      ChannelConfig
	nextFree sim.Ticks
	// Geometry fixed at construction: an address's atom is
	// addr >> atomShift, an atom's row is atom >> rowShift, and a row's
	// bank is row & bankMask. atomTicks is one atom's bus time.
	atomShift uint
	rowShift  uint
	bankMask  uint64
	atomTicks sim.Ticks
	// openRow[b] is bank b's open row (hasRow[b] gates validity).
	openRow []uint64
	hasRow  []bool
	stats   ChannelStats
	// reqBytes buckets per-request transfer sizes (log2); updated with a
	// plain array increment on the access path.
	reqBytes stats.Histogram
}

// NewChannel builds a channel on the given engine. It panics on an invalid
// configuration, which is always a programming error in system assembly.
func NewChannel(eng *sim.Engine, cfg ChannelConfig) *Channel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	banks := max(cfg.Banks, 1)
	atomTicks := sim.Ticks(float64(cfg.AtomBytes)/cfg.BytesPerCycle + 0.999999)
	c := &Channel{
		eng:       eng,
		cfg:       cfg,
		atomShift: log2(cfg.AtomBytes),
		bankMask:  uint64(banks - 1),
		atomTicks: max(atomTicks, 1),
		openRow:   make([]uint64, banks),
		hasRow:    make([]bool, banks),
	}
	if cfg.RowBytes > 0 {
		c.rowShift = log2(cfg.RowBytes) - c.atomShift
	}
	return c
}

// Stats returns a copy of the accumulated statistics.
func (c *Channel) Stats() ChannelStats { return c.stats }

// atoms returns the index of a request's first atom and how many atom
// transfers it needs.
func (c *Channel) atoms(addr uint64, bytes int) (first, n uint64) {
	first = addr >> c.atomShift
	last := (addr + uint64(bytes) - 1) >> c.atomShift
	return first, last - first + 1
}

// Access enqueues a request and returns its completion time. Done (if set)
// is scheduled at that time.
func (c *Channel) Access(req Request) sim.Ticks {
	if req.Bytes <= 0 {
		panic(fmt.Sprintf("mem: access of %d bytes", req.Bytes))
	}
	first, n := c.atoms(req.Addr, req.Bytes)
	moved := n << c.atomShift
	c.reqBytes.Observe(moved)

	// The data bus is occupied for the transfer time only; row-buffer
	// misses add latency (bank activate/precharge proceeds in parallel
	// with other banks' transfers — DRAM bank-level parallelism, which
	// is what keeps HBM2 fast under NOVA's random vertex accesses).
	service := sim.Ticks(n) * c.atomTicks
	extraLatency := sim.Ticks(0)
	if c.cfg.RowBytes > 0 {
		// A request's atoms are consecutive, so only its first atom in
		// each row can miss: every later one hits the row it opened.
		var misses uint64
		for row, end := first>>c.rowShift, (first+n-1)>>c.rowShift; row <= end; row++ {
			bank := row & c.bankMask
			if !c.hasRow[bank] || c.openRow[bank] != row {
				misses++
				c.openRow[bank] = row
				c.hasRow[bank] = true
			}
		}
		c.stats.RowMisses += misses
		c.stats.RowHits += n - misses
		if misses > 0 {
			extraLatency = c.cfg.RowMissPenalty
		}
	}

	now := c.eng.Now()
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

	if req.Done != nil {
		c.eng.ScheduleAt(complete, req.Done)
	}
	return complete
}

// BulkTransfer charges a large sequential transfer (such as a BSP apply
// sweep or a PolyGraph slice switch) against the channel's bandwidth
// without per-atom events, and returns its completion time. The row-buffer
// model is bypassed: bulk sweeps are sequential and row-friendly.
func (c *Channel) BulkTransfer(bytes int64, kind AccessKind) sim.Ticks {
	if bytes <= 0 {
		return c.eng.Now()
	}
	c.reqBytes.Observe(uint64(bytes))
	service := sim.Ticks(float64(bytes)/c.cfg.BytesPerCycle + 0.999999)
	now := c.eng.Now()
	start := now
	if c.nextFree > start {
		start = c.nextFree
	}
	c.nextFree = start + service
	c.stats.BusyTicks += service
	switch kind {
	case UsefulRead:
		c.stats.Reads++
		c.stats.UsefulBytes += uint64(bytes)
	case WastefulRead:
		c.stats.Reads++
		c.stats.WastefulBytes += uint64(bytes)
	case WriteAccess:
		c.stats.Writes++
		c.stats.WrittenBytes += uint64(bytes)
	}
	complete := start + service + c.cfg.FixedLatency
	if complete > c.stats.LastCompletion {
		c.stats.LastCompletion = complete
	}
	return complete
}

// RegisterStats registers the channel's counters, derived utilization and
// request-size histogram under g. The existing plain ChannelStats fields
// are adopted by pointer, so the access path is unchanged; derived values
// are formulas evaluated at dump time against the engine clock.
func (c *Channel) RegisterStats(g *stats.Group) {
	g.Uint64(&c.stats.Reads, "reads", stats.Count, "read requests serviced")
	g.Uint64(&c.stats.Writes, "writes", stats.Count, "write requests serviced")
	g.Uint64(&c.stats.UsefulBytes, "useful_bytes", stats.Bytes, "bytes read that the accelerator needed")
	g.Uint64(&c.stats.WastefulBytes, "wasteful_bytes", stats.Bytes, "bytes read only to locate active vertices (tracker overfetch)")
	g.Uint64(&c.stats.WrittenBytes, "written_bytes", stats.Bytes, "bytes written (write-backs and spills)")
	g.Uint64(&c.stats.RowHits, "row_hits", stats.Count, "atom accesses that hit an open row buffer")
	g.Uint64(&c.stats.RowMisses, "row_misses", stats.Count, "atom accesses that paid the row-activate penalty")
	g.Formula(func() float64 { return float64(c.stats.BusyTicks) },
		"busy_cycles", stats.Cycles, "cycles the data bus was occupied")
	g.Formula(func() float64 { return c.Utilization(c.eng.Now()) },
		"utilization", stats.Ratio, "achieved fraction of peak bandwidth over the run")
	g.Histogram(&c.reqBytes, "request_bytes", stats.Bytes, "per-request transfer size (log2 buckets)")
}

// Utilization returns the fraction of the channel's peak bandwidth consumed
// over the first `elapsed` ticks of the run.
func (c *Channel) Utilization(elapsed sim.Ticks) float64 {
	if elapsed == 0 {
		return 0
	}
	peak := float64(elapsed) * c.cfg.BytesPerCycle
	return float64(c.stats.TotalBytes()) / peak
}

// Standard presets at a 2 GHz core clock, mirroring Table II.

// HBM2ChannelConfig models one of the eight channels in an HBM2 stack:
// 32 B atoms, 32 GB/s per channel (256 GB/s per stack), ~100 ns load-to-use.
func HBM2ChannelConfig(name string) ChannelConfig {
	return ChannelConfig{
		Name:           name,
		AtomBytes:      32,
		BytesPerCycle:  16, // 32 GB/s at 2 GHz
		FixedLatency:   200,
		RowBytes:       1024,
		RowMissPenalty: 24,
		Banks:          16,
	}
}

// DDR4ChannelConfig models one DDR4-2400 channel: 64 B atoms, 19.2 GB/s,
// longer latency, large rows that reward NOVA's sequential edge streaming.
func DDR4ChannelConfig(name string) ChannelConfig {
	return ChannelConfig{
		Name:           name,
		AtomBytes:      64,
		BytesPerCycle:  9.6, // 19.2 GB/s at 2 GHz
		FixedLatency:   300,
		RowBytes:       8192,
		RowMissPenalty: 44,
		Banks:          16,
	}
}
