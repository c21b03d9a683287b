package mem

import (
	"fmt"
	"math/bits"

	"nova/internal/stats"
)

// Cache is the direct-mapped, write-back vertex cache inside each PE's
// message processing unit (Section III-B). It is a structural bookkeeper:
// it tracks which blocks are resident and dirty, and fires an eviction hook
// so the vertex management unit can implement on_evict from Listing 1.
// Timing for hits and misses is charged by the caller.
type Cache struct {
	// blockShift is log2 of the block size. A block maps to line
	// block & lineMask, or to block % lineMod when lineMod is set: the
	// line count is not a power of two.
	blockShift uint
	lineMask   uint64
	lineMod    uint64
	tags       []uint64
	valid      []bool
	dirty      []bool
	stats      CacheStats

	// OnEvict runs for every eviction (dirty or clean) with the evicted
	// block's base address and its dirtiness; this is how active vertices
	// spill to DRAM in NOVA.
	OnEvict func(blockAddr uint64, dirty bool)
}

// CacheStats counts cache activity.
type CacheStats struct {
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	DirtyEvictions uint64
}

// HitRate returns hits / (hits+misses), or 0 for an untouched cache.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewCache builds a direct-mapped cache of the given total capacity and
// block size. The block size must be a power of two and the capacity a
// positive multiple of it.
func NewCache(capacityBytes, blockBytes int) *Cache {
	if !isPow2(blockBytes) || capacityBytes <= 0 || capacityBytes%blockBytes != 0 {
		panic(fmt.Sprintf("mem: invalid cache geometry %d/%d", capacityBytes, blockBytes))
	}
	n := capacityBytes / blockBytes
	c := &Cache{
		blockShift: log2(blockBytes),
		lineMask:   uint64(n - 1),
		tags:       make([]uint64, n),
		valid:      make([]bool, n),
		dirty:      make([]bool, n),
	}
	if !isPow2(n) {
		c.lineMod = uint64(n)
	}
	return c
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// log2 returns the exponent of a power of two.
func log2(n int) uint { return uint(bits.TrailingZeros(uint(n))) }

// Stats returns a copy of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// RegisterStats registers the cache's counters and derived hit rate under
// g, adopting the existing CacheStats fields by pointer.
func (c *Cache) RegisterStats(g *stats.Group) {
	g.Uint64(&c.stats.Hits, "hits", stats.Count, "lookups that found the block resident")
	g.Uint64(&c.stats.Misses, "misses", stats.Count, "lookups that required a memory fill")
	g.Uint64(&c.stats.Evictions, "evictions", stats.Count, "blocks displaced from the cache")
	g.Uint64(&c.stats.DirtyEvictions, "dirty_evictions", stats.Count, "evictions that wrote the block back")
	g.Formula(func() float64 { return c.stats.HitRate() },
		"hit_rate", stats.Ratio, "hits / (hits + misses)")
}

func (c *Cache) line(addr uint64) (idx int, tag uint64) {
	block := addr >> c.blockShift
	if c.lineMod != 0 {
		return int(block % c.lineMod), block
	}
	return int(block & c.lineMask), block
}

// Contains reports whether the block holding addr is resident, without
// touching statistics.
func (c *Cache) Contains(addr uint64) bool {
	idx, tag := c.line(addr)
	return c.valid[idx] && c.tags[idx] == tag
}

// Access looks up addr, counting a hit or miss. On a hit it returns
// (true, 0, false). On a miss it does NOT fill the line; the caller issues
// the memory read and calls Fill at response time.
func (c *Cache) Access(addr uint64) bool {
	idx, tag := c.line(addr)
	if c.valid[idx] && c.tags[idx] == tag {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Fill installs the block containing addr, evicting any previous occupant
// of its line. It returns the evicted block's address and dirtiness; the
// OnEvict hook (if set) fires before the new block is installed, mirroring
// the write-back + on_evict sequence of Listing 1.
func (c *Cache) Fill(addr uint64) (evicted uint64, evictedDirty, hadEviction bool) {
	idx, tag := c.line(addr)
	if c.valid[idx] && c.tags[idx] == tag {
		return 0, false, false // already resident (racing fills coalesce)
	}
	if c.valid[idx] {
		hadEviction = true
		evicted = c.tags[idx] << c.blockShift
		evictedDirty = c.dirty[idx]
		c.stats.Evictions++
		if evictedDirty {
			c.stats.DirtyEvictions++
		}
		if c.OnEvict != nil {
			c.OnEvict(evicted, evictedDirty)
		}
	}
	c.tags[idx] = tag
	c.valid[idx] = true
	c.dirty[idx] = false
	return evicted, evictedDirty, hadEviction
}

// MarkDirty marks the block containing addr as modified and reports
// whether it was resident. A non-resident block is left untouched: the
// caller writes it through to memory instead.
func (c *Cache) MarkDirty(addr uint64) bool {
	idx, tag := c.line(addr)
	if !c.valid[idx] || c.tags[idx] != tag {
		return false
	}
	c.dirty[idx] = true
	return true
}

// FlushAll evicts every resident block through OnEvict (the drain used at
// quiescence boundaries so active vertices parked in the cache are tracked).
func (c *Cache) FlushAll() {
	for i := range c.valid {
		if !c.valid[i] {
			continue
		}
		addr := c.tags[i] << c.blockShift
		dirty := c.dirty[i]
		c.valid[i] = false
		c.dirty[i] = false
		c.stats.Evictions++
		if dirty {
			c.stats.DirtyEvictions++
		}
		if c.OnEvict != nil {
			c.OnEvict(addr, dirty)
		}
	}
}
