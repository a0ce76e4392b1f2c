// Package cache implements the set-associative caches of the simulated
// CMP: per-core L1-D caches and the shared, banked last-level cache (LLC).
//
// The cache is a pure state container — lookup, fill, eviction, dirty
// tracking, LRU replacement — with no notion of time. Latency, banking
// conflicts and MSHR occupancy are imposed by the simulator driving it.
// Each line carries only the metadata BuMP and the statistics need:
// whether the fill was a prefetch/bulk transfer, whether a demand access
// referenced it after the fill (overfetch accounting, Fig. 8), and
// whether it was eagerly cleaned.
package cache

import (
	"fmt"

	"bump/internal/mem"
)

// Line is one cache block's bookkeeping state. Keep it at 24 bytes (the
// block address, the flags, the LRU stamp): the paper's 4 MB LLC holds
// 65,536 of them, the bulk of what a simulation allocates, and
// TestLineSize guards the size.
type Line struct {
	Block mem.BlockAddr
	Valid bool
	Dirty bool
	// Prefetched marks lines filled by a prefetcher or bulk transfer
	// rather than a demand miss.
	Prefetched bool
	// Referenced marks lines touched by a demand access since fill;
	// a Prefetched line evicted with Referenced == false is overfetch.
	Referenced bool
	// Cleaned marks lines whose dirty data was written back eagerly
	// (VWQ / BuMP bulk writes) while staying resident; re-dirtying such
	// a line means the eager writeback was premature (Fig. 8's "extra
	// writebacks").
	Cleaned bool

	lastUse uint64
}

// Eviction describes the victim displaced by a fill.
type Eviction struct {
	// Valid reports whether a valid line was displaced.
	Valid bool
	// Line is a copy of the displaced line's state.
	Line Line
}

// Stats aggregates the cache's event counters.
type Stats struct {
	Lookups     uint64
	Hits        uint64
	Misses      uint64
	Fills       uint64
	Evictions   uint64
	DirtyEvicts uint64
	// PrefetchUnused counts prefetched/bulk lines evicted without any
	// demand reference (overfetch at the LLC level).
	PrefetchUnused uint64
	// PrefetchUsed counts prefetched/bulk lines that a demand access hit.
	PrefetchUsed uint64
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement.
type Cache struct {
	sets  int
	ways  int
	lines []Line // sets*ways, set-major
	tick  uint64
	stats Stats
}

// New builds a cache of totalBytes capacity with the given associativity.
// totalBytes must be a multiple of ways*mem.BlockBytes and the resulting
// set count must be a power of two (matching real indexing hardware).
func New(totalBytes, ways int) *Cache {
	if ways <= 0 {
		panic("cache: ways must be positive")
	}
	blocks := totalBytes / mem.BlockBytes
	if blocks*mem.BlockBytes != totalBytes {
		panic("cache: size must be a multiple of the block size")
	}
	sets := blocks / ways
	if sets == 0 || sets*ways != blocks {
		panic("cache: size must be a multiple of ways*blockBytes")
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a power of two", sets))
	}
	return &Cache{sets: sets, ways: ways, lines: make([]Line, sets*ways)}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) setOf(b mem.BlockAddr) int { return int(uint64(b) & uint64(c.sets-1)) }

func (c *Cache) set(b mem.BlockAddr) []Line {
	s := c.setOf(b)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// Lookup finds the line holding block b. When touch is true the access
// updates LRU state, marks the line Referenced, and counts in hit/miss
// statistics; probe-only lookups (touch == false) leave all state intact.
// The returned pointer stays valid until the next fill in the same set.
func (c *Cache) Lookup(b mem.BlockAddr, touch bool) *Line {
	set := c.set(b)
	if touch {
		c.stats.Lookups++
	}
	for i := range set {
		if set[i].Valid && set[i].Block == b {
			if touch {
				c.stats.Hits++
				c.tick++
				set[i].lastUse = c.tick
				if set[i].Prefetched && !set[i].Referenced {
					c.stats.PrefetchUsed++
				}
				set[i].Referenced = true
			}
			return &set[i]
		}
	}
	if touch {
		c.stats.Misses++
	}
	return nil
}

// Contains reports whether block b is resident, without touching any state.
func (c *Cache) Contains(b mem.BlockAddr) bool { return c.Lookup(b, false) != nil }

// Fill inserts block b, evicting the LRU line of its set if necessary, and
// returns the new line plus the eviction record. Filling a block that is
// already resident refreshes its LRU position but keeps its state. pc
// and core are unused (a line does not record who filled it: nothing
// reads that back); they stay in the signature for existing callers.
func (c *Cache) Fill(b mem.BlockAddr, _ mem.PC, _ int, prefetched bool) (*Line, Eviction) {
	set := c.set(b)
	c.stats.Fills++
	// Already resident: refresh.
	for i := range set {
		if set[i].Valid && set[i].Block == b {
			c.tick++
			set[i].lastUse = c.tick
			return &set[i], Eviction{}
		}
	}
	victim := 0
	for i := range set {
		if !set[i].Valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	var ev Eviction
	if set[victim].Valid {
		ev = Eviction{Valid: true, Line: set[victim]}
		c.noteEvict(&set[victim])
	}
	c.tick++
	set[victim] = Line{Block: b, Valid: true, Prefetched: prefetched, lastUse: c.tick}
	return &set[victim], ev
}

func (c *Cache) noteEvict(l *Line) {
	c.stats.Evictions++
	if l.Dirty {
		c.stats.DirtyEvicts++
	}
	if l.Prefetched && !l.Referenced {
		c.stats.PrefetchUnused++
	}
}

// Invalidate removes block b, returning a copy of the removed line. Used
// for eager writeback mechanisms that clean or remove blocks out of band.
func (c *Cache) Invalidate(b mem.BlockAddr) (Line, bool) {
	set := c.set(b)
	for i := range set {
		if set[i].Valid && set[i].Block == b {
			c.noteEvict(&set[i])
			l := set[i]
			set[i] = Line{}
			return l, true
		}
	}
	return Line{}, false
}

// CleanBlock clears the dirty bit of block b if resident, returning whether
// the block was dirty. Eager writeback (VWQ, BuMP bulk writes) uses this to
// write back blocks without evicting them.
func (c *Cache) CleanBlock(b mem.BlockAddr) (wasDirty bool) {
	if l := c.Lookup(b, false); l != nil && l.Dirty {
		l.Dirty = false
		l.Cleaned = true
		return true
	}
	return false
}

// DirtyBlocksInRegion returns the resident dirty blocks of region r in
// ascending block order. BuMP's writeback generation logic and VWQ's
// adjacent-block search both scan the LLC this way.
func (c *Cache) DirtyBlocksInRegion(r mem.RegionAddr, regionShift uint) []mem.BlockAddr {
	return c.AppendDirtyBlocksInRegion(nil, r, regionShift)
}

// AppendDirtyBlocksInRegion is DirtyBlocksInRegion into a caller-supplied
// buffer (typically a reused scratch slice), avoiding a per-scan
// allocation on the bulk-writeback path.
func (c *Cache) AppendDirtyBlocksInRegion(dst []mem.BlockAddr, r mem.RegionAddr, regionShift uint) []mem.BlockAddr {
	n := mem.BlocksPerRegion(regionShift)
	for i := uint(0); i < n; i++ {
		b := r.Block(regionShift, i)
		if l := c.Lookup(b, false); l != nil && l.Dirty {
			dst = append(dst, b)
		}
	}
	return dst
}

// MissingBlocksInRegion returns region r's blocks that are not resident, in
// ascending order, excluding the block `except` (the demand trigger).
// BuMP's access generation logic uses it to build a bulk read.
func (c *Cache) MissingBlocksInRegion(r mem.RegionAddr, regionShift uint, except mem.BlockAddr) []mem.BlockAddr {
	return c.AppendMissingBlocksInRegion(nil, r, regionShift, except)
}

// AppendMissingBlocksInRegion is MissingBlocksInRegion into a
// caller-supplied buffer (typically a reused scratch slice), avoiding a
// per-scan allocation on the bulk-read generation path.
func (c *Cache) AppendMissingBlocksInRegion(dst []mem.BlockAddr, r mem.RegionAddr, regionShift uint, except mem.BlockAddr) []mem.BlockAddr {
	n := mem.BlocksPerRegion(regionShift)
	for i := uint(0); i < n; i++ {
		b := r.Block(regionShift, i)
		if b == except {
			continue
		}
		if c.Lookup(b, false) == nil {
			dst = append(dst, b)
		}
	}
	return dst
}
