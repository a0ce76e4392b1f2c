package cache

import "bump/internal/mem"

// MSHR is one miss-status holding register: an outstanding fill and the
// demand accesses coalesced onto it.
type MSHR struct {
	Block mem.BlockAddr
	// Demand reports whether any waiter is a demand access (a pure
	// prefetch MSHR can be upgraded when a demand access merges).
	Demand bool
	// Waiters are opaque tokens (the simulator stores continuation IDs).
	Waiters []uint64
}

// MSHRTable tracks outstanding misses with a bounded number of entries,
// modelling the 10 L1-D MSHRs of Table II and the LLC's fill queue.
type MSHRTable struct {
	cap int
	// live holds the outstanding entries densely; index maps each
	// entry's block to its position in live.
	live  []*MSHR
	index *AddrIndex
	// pool recycles completed entries (and their Waiters backing arrays)
	// so steady-state miss traffic allocates nothing.
	pool []*MSHR

	// Allocs counts successful allocations; Merges counts accesses
	// coalesced onto an existing entry; Stalls counts rejected
	// allocations (structure full).
	Allocs uint64
	Merges uint64
	Stalls uint64
}

// NewMSHRTable creates a table with the given capacity. Storage grows
// with occupancy, so a large capacity costs nothing until it is used.
func NewMSHRTable(capacity int) *MSHRTable {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	return &MSHRTable{cap: capacity, index: NewAddrIndex(0)}
}

// Cap returns the capacity.
func (t *MSHRTable) Cap() int { return t.cap }

// Len returns the number of outstanding entries.
func (t *MSHRTable) Len() int { return len(t.live) }

// Full reports whether a new allocation would be rejected.
func (t *MSHRTable) Full() bool { return len(t.live) >= t.cap }

// Lookup returns the outstanding entry for block b, if any.
func (t *MSHRTable) Lookup(b mem.BlockAddr) (*MSHR, bool) {
	if i, ok := t.index.Get(uint64(b)); ok {
		return t.live[i], true
	}
	return nil, false
}

// Allocate records a miss on block b. If an entry already exists the
// request merges onto it and merged == true. If the table is full and no
// entry exists, ok == false and the caller must retry later.
func (t *MSHRTable) Allocate(b mem.BlockAddr, demand bool, waiter uint64) (m *MSHR, merged, ok bool) {
	var i int32
	var exists bool
	if t.Full() {
		if i, exists = t.index.Get(uint64(b)); !exists {
			t.Stalls++
			return nil, false, false
		}
	} else {
		i, exists = t.index.GetOrInsert(uint64(b), int32(len(t.live)))
	}
	if exists {
		e := t.live[i]
		t.Merges++
		e.Demand = e.Demand || demand
		e.Waiters = append(e.Waiters, waiter)
		return e, true, true
	}
	var e *MSHR
	if n := len(t.pool); n > 0 {
		e = t.pool[n-1]
		t.pool = t.pool[:n-1]
		e.Block, e.Demand, e.Waiters = b, demand, e.Waiters[:0]
	} else {
		e = &MSHR{Block: b, Demand: demand}
	}
	if waiter != 0 {
		e.Waiters = append(e.Waiters, waiter)
	}
	t.live = append(t.live, e)
	t.Allocs++
	return e, false, true
}

// Complete removes and returns the entry for block b when its fill
// arrives. Returns false if no entry is outstanding.
func (t *MSHRTable) Complete(b mem.BlockAddr) (*MSHR, bool) {
	i, ok := t.index.Delete(uint64(b))
	if !ok {
		return nil, false
	}
	e := t.live[i]
	// Keep live dense: the last entry moves into the freed position.
	last := len(t.live) - 1
	if int(i) != last {
		t.live[i] = t.live[last]
		t.index.Set(uint64(t.live[i].Block), i)
	}
	t.live[last] = nil
	t.live = t.live[:last]
	return e, true
}

// Release returns a completed entry to the table's pool for reuse. The
// caller must be finished with the entry and its Waiters slice; callers
// that retain completed entries simply skip Release and let the GC have
// them.
func (t *MSHRTable) Release(e *MSHR) { t.pool = append(t.pool, e) }
