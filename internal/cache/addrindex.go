package cache

import "math/bits"

// AddrIndex maps block or region addresses (any uint64 key) to int32
// values, usually slots in a caller-owned slab. It replaces Go maps on
// the simulator's per-access paths: the structures it indexes (MSHRs,
// region tables, generation trackers) are small bounded hardware
// tables, and a map's hashing, group probing and iterator machinery
// cost more than the work they index.
//
// The table is open-addressed with linear probing over a power-of-two
// array and Fibonacci hashing. Deletion shifts the rest of the probe run
// back into the hole, so there are no tombstones: probe lengths depend
// only on live occupancy, and the table grows only when live occupancy
// crosses the load limit. It never shrinks; Reset empties it in place.
//
// The zero value is not usable; build one with NewAddrIndex.
type AddrIndex struct {
	cells []indexCell
	mask  uint64
	shift uint // 64 - log2(len(cells))
	n     int
}

type indexCell struct {
	key  uint64
	slot int32
	used bool
}

const minIndexCells = 8

// NewAddrIndex returns an empty index sized to hold hint keys without
// growing.
func NewAddrIndex(hint int) *AddrIndex {
	x := &AddrIndex{}
	x.alloc(cellsFor(hint))
	return x
}

// cellsFor returns the power-of-two table size that holds n keys under
// the 3/4 load limit.
func cellsFor(n int) int {
	c := minIndexCells
	for c*3/4 < n {
		c <<= 1
	}
	return c
}

func (x *AddrIndex) alloc(cells int) {
	x.cells = make([]indexCell, cells)
	x.mask = uint64(cells - 1)
	x.shift = uint(64 - bits.TrailingZeros(uint(cells)))
	x.n = 0
}

// home is the key's preferred cell.
func (x *AddrIndex) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> x.shift
}

// Len returns the number of keys present.
func (x *AddrIndex) Len() int { return x.n }

// find returns the cell holding k, or the empty cell that ends k's
// probe run.
func (x *AddrIndex) find(k uint64) uint64 {
	i := x.home(k)
	for x.cells[i].used && x.cells[i].key != k {
		i = (i + 1) & x.mask
	}
	return i
}

// Get returns the slot stored for k.
func (x *AddrIndex) Get(k uint64) (int32, bool) {
	c := &x.cells[x.find(k)]
	return c.slot, c.used
}

// GetOrInsert returns k's slot and true if k is present; otherwise it
// stores slot for k and returns slot and false. One probe serves the
// common "find the entry or open a new one" pattern.
func (x *AddrIndex) GetOrInsert(k uint64, slot int32) (int32, bool) {
	c := &x.cells[x.find(k)]
	if c.used {
		return c.slot, true
	}
	x.insertAt(c, k, slot)
	return slot, false
}

// Set stores slot for k, inserting k or overwriting its slot.
func (x *AddrIndex) Set(k uint64, slot int32) {
	c := &x.cells[x.find(k)]
	if c.used {
		c.slot = slot
		return
	}
	x.insertAt(c, k, slot)
}

// insertAt stores a new key in the empty cell c that ends its probe
// run, first growing the table if the key would push live occupancy
// past 3/4.
func (x *AddrIndex) insertAt(c *indexCell, k uint64, slot int32) {
	if (x.n+1)*4 > len(x.cells)*3 {
		x.grow()
		c = &x.cells[x.find(k)]
	}
	*c = indexCell{key: k, slot: slot, used: true}
	x.n++
}

// Delete removes k and returns the slot it held.
func (x *AddrIndex) Delete(k uint64) (int32, bool) {
	i := x.find(k)
	if !x.cells[i].used {
		return 0, false
	}
	slot := x.cells[i].slot
	// Backward-shift deletion: walk the rest of the probe run and move
	// into the hole every entry whose home lies cyclically at or before
	// the hole, so no entry is cut off from its home by an empty cell.
	hole := i
	for j := (i + 1) & x.mask; x.cells[j].used; j = (j + 1) & x.mask {
		if (j-x.home(x.cells[j].key))&x.mask >= (j-hole)&x.mask {
			x.cells[hole] = x.cells[j]
			hole = j
		}
	}
	x.cells[hole] = indexCell{}
	x.n--
	return slot, true
}

// AppendKeys appends every key to dst in table order (which depends on
// the hash, not on insertion order; callers that need a canonical order
// sort).
func (x *AddrIndex) AppendKeys(dst []uint64) []uint64 {
	for i := range x.cells {
		if x.cells[i].used {
			dst = append(dst, x.cells[i].key)
		}
	}
	return dst
}

// Reset removes every key, keeping the table's capacity.
func (x *AddrIndex) Reset() {
	clear(x.cells)
	x.n = 0
}

// grow doubles the table and reinserts every key.
func (x *AddrIndex) grow() {
	old := x.cells
	x.alloc(2 * len(old))
	for _, c := range old {
		if c.used {
			x.cells[x.find(c.key)] = c
			x.n++
		}
	}
}
