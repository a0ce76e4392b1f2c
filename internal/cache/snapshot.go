package cache

import (
	"cmp"
	"fmt"
	"slices"

	"bump/internal/mem"
	"bump/internal/snapshot"
)

// Line flag bits in the snapshot encoding.
const (
	lineValid      = 1 << 0
	lineDirty      = 1 << 1
	linePrefetched = 1 << 2
	lineReferenced = 1 << 3
	lineCleaned    = 1 << 4
)

// SnapshotTo serializes the cache: geometry (validated on restore), LRU
// clock, statistics, and every line. Invalid lines collapse to a single
// zero flag byte, so semantically equal caches encode identically.
func (c *Cache) SnapshotTo(w *snapshot.Writer) {
	w.Section("cache")
	w.U32(uint32(c.sets))
	w.U32(uint32(c.ways))
	w.U64(c.tick)
	w.Any(c.stats)
	for i := range c.lines {
		l := &c.lines[i]
		if !l.Valid {
			w.U8(0)
			continue
		}
		var flags uint8 = lineValid
		if l.Dirty {
			flags |= lineDirty
		}
		if l.Prefetched {
			flags |= linePrefetched
		}
		if l.Referenced {
			flags |= lineReferenced
		}
		if l.Cleaned {
			flags |= lineCleaned
		}
		w.U8(flags)
		w.U64(uint64(l.Block))
		w.U64(l.lastUse)
	}
}

// RestoreFrom replaces the cache's state with a snapshot's. The target
// cache must have the same geometry the snapshot was taken from.
func (c *Cache) RestoreFrom(r *snapshot.Reader) error {
	r.Section("cache")
	sets, ways := r.U32(), r.U32()
	if r.Err() != nil {
		return r.Err()
	}
	if int(sets) != c.sets || int(ways) != c.ways {
		return fmt.Errorf("cache: snapshot geometry %dx%d, cache is %dx%d", sets, ways, c.sets, c.ways)
	}
	c.tick = r.U64()
	r.AnyInto(&c.stats)
	for i := range c.lines {
		flags := r.U8()
		if r.Err() != nil {
			return r.Err()
		}
		if flags&lineValid == 0 {
			if flags != 0 {
				return fmt.Errorf("cache: invalid line with non-zero flags %#x", flags)
			}
			c.lines[i] = Line{}
			continue
		}
		c.lines[i] = Line{
			Block:      mem.BlockAddr(r.U64()),
			Valid:      true,
			Dirty:      flags&lineDirty != 0,
			Prefetched: flags&linePrefetched != 0,
			Referenced: flags&lineReferenced != 0,
			Cleaned:    flags&lineCleaned != 0,
			lastUse:    r.U64(),
		}
		// A resident line must live in the set its address indexes, or
		// lookups would silently miss it after restore.
		if r.Err() == nil && c.setOf(c.lines[i].Block) != i/c.ways {
			return fmt.Errorf("cache: line %d holds block %#x belonging to set %d", i, uint64(c.lines[i].Block), c.setOf(c.lines[i].Block))
		}
	}
	return r.Err()
}

// SnapshotTo serializes the MSHR table: capacity (validated), counters,
// and the outstanding entries in ascending block order (the pool of
// recycled entries is transient and skipped).
func (t *MSHRTable) SnapshotTo(w *snapshot.Writer) {
	w.Section("mshr")
	w.U32(uint32(t.cap))
	w.U64(t.Allocs)
	w.U64(t.Merges)
	w.U64(t.Stalls)
	entries := slices.Clone(t.live)
	slices.SortFunc(entries, func(a, b *MSHR) int { return cmp.Compare(a.Block, b.Block) })
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.U64(uint64(e.Block))
		w.Bool(e.Demand)
		w.U32(uint32(len(e.Waiters)))
		for _, tok := range e.Waiters {
			w.U64(tok)
		}
	}
}

// RestoreFrom replaces the table's outstanding entries with a
// snapshot's.
func (t *MSHRTable) RestoreFrom(r *snapshot.Reader) error {
	r.Section("mshr")
	capGot := r.U32()
	if r.Err() != nil {
		return r.Err()
	}
	if int(capGot) != t.cap {
		return fmt.Errorf("cache: MSHR capacity %d, table has %d", capGot, t.cap)
	}
	t.Allocs = r.U64()
	t.Merges = r.U64()
	t.Stalls = r.U64()
	n := r.Len(8 + 1 + 4)
	if r.Err() != nil {
		return r.Err()
	}
	if n > t.cap {
		return fmt.Errorf("cache: %d outstanding MSHRs exceed capacity %d", n, t.cap)
	}
	t.live = make([]*MSHR, 0, n)
	t.index = NewAddrIndex(n)
	t.pool = nil
	for i := 0; i < n; i++ {
		b := mem.BlockAddr(r.U64())
		e := &MSHR{Block: b, Demand: r.Bool()}
		nw := r.Len(8)
		if r.Err() != nil {
			return r.Err()
		}
		e.Waiters = make([]uint64, nw)
		for j := range e.Waiters {
			e.Waiters[j] = r.U64()
		}
		if _, dup := t.index.GetOrInsert(uint64(b), int32(len(t.live))); dup {
			return fmt.Errorf("cache: duplicate MSHR for block %#x", uint64(b))
		}
		t.live = append(t.live, e)
	}
	return r.Err()
}
