package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"bump/internal/mem"
)

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ bytes, ways int }{
		{0, 1},        // zero sets
		{100, 1},      // not block multiple
		{64 * 3, 1},   // 3 sets, not power of two
		{64 * 16, 0},  // zero ways
		{64 * 16, -1}, // negative ways
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", tc.bytes, tc.ways)
				}
			}()
			New(tc.bytes, tc.ways)
		}()
	}
	c := New(4<<20, 16)
	if c.Sets() != 4<<20/64/16 || c.Ways() != 16 {
		t.Errorf("geometry = %d sets x %d ways", c.Sets(), c.Ways())
	}
}

func TestFillLookupHitMiss(t *testing.T) {
	c := New(64*8, 2) // 4 sets, 2 ways
	b := mem.BlockAddr(5)
	if c.Lookup(b, true) != nil {
		t.Fatal("lookup on empty cache must miss")
	}
	c.Fill(b, 0x400, 1, false)
	l := c.Lookup(b, true)
	if l == nil || l.Block != b || !l.Valid {
		t.Fatal("fill then lookup must hit")
	}
	if l.Prefetched || l.Dirty || !l.Referenced {
		t.Errorf("demand fill then hit: line metadata %+v", *l)
	}
	st := c.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Errorf("stats = %+v", st)
	}
	pb := mem.BlockAddr(6)
	c.Fill(pb, 0x400, 1, true)
	if pl := c.Lookup(pb, false); pl == nil || pl.Block != pb || !pl.Valid || !pl.Prefetched || pl.Referenced {
		t.Errorf("prefetch fill: line metadata %+v", pl)
	}
}

// TestLineSize pins a line at 24 bytes: the LLC line array is most of
// what a simulation allocates (1.5 MB for the paper's 4 MB LLC), so a
// re-added per-line field shows up as memory in every concurrent job.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Line{}) = %d, want 24", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(64*2, 2) // 1 set, 2 ways
	c.Fill(0, 0, 0, false)
	c.Fill(1, 0, 0, false)
	c.Lookup(0, true) // make 1 the LRU
	_, ev := c.Fill(2, 0, 0, false)
	if !ev.Valid || ev.Line.Block != 1 {
		t.Errorf("expected eviction of block 1, got %+v", ev)
	}
	if !c.Contains(0) || !c.Contains(2) || c.Contains(1) {
		t.Error("wrong residency after replacement")
	}
}

func TestProbeDoesNotDisturbState(t *testing.T) {
	c := New(64*2, 2)
	c.Fill(0, 0, 0, false)
	c.Fill(1, 0, 0, false)
	before := c.Stats()
	c.Lookup(0, false) // probe must not promote or count
	after := c.Stats()
	if before != after {
		t.Error("probe changed statistics")
	}
	// Block 0 must still be LRU: fill evicts it.
	_, ev := c.Fill(2, 0, 0, false)
	if !ev.Valid || ev.Line.Block != 0 {
		t.Errorf("probe promoted block 0: eviction = %+v", ev)
	}
}

func TestDirtyEvictionAccounting(t *testing.T) {
	c := New(64*2, 1) // 2 sets, direct-mapped
	l, _ := c.Fill(0, 0, 0, false)
	l.Dirty = true
	_, ev := c.Fill(2, 0, 0, false) // same set (2 mod 2 == 0)
	if !ev.Valid || !ev.Line.Dirty {
		t.Fatalf("expected dirty eviction, got %+v", ev)
	}
	if st := c.Stats(); st.DirtyEvicts != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRefillKeepsDirtyBit(t *testing.T) {
	c := New(64*4, 2)
	l, _ := c.Fill(3, 0, 0, false)
	l.Dirty = true
	l2, ev := c.Fill(3, 0x99, 2, true)
	if ev.Valid {
		t.Error("refill of resident block must not evict")
	}
	if !l2.Dirty {
		t.Error("refill lost the dirty bit")
	}
}

func TestPrefetchUseAccounting(t *testing.T) {
	c := New(64*2, 1)
	c.Fill(0, 0, 0, true) // prefetched
	c.Fill(1, 0, 0, true) // prefetched, other set
	c.Lookup(0, true)     // demand touches block 0
	c.Invalidate(0)
	c.Invalidate(1)
	st := c.Stats()
	if st.PrefetchUsed != 1 {
		t.Errorf("PrefetchUsed = %d, want 1", st.PrefetchUsed)
	}
	if st.PrefetchUnused != 1 {
		t.Errorf("PrefetchUnused = %d, want 1", st.PrefetchUnused)
	}
	// A second demand hit must not double-count PrefetchUsed.
	c.Fill(2, 0, 0, true)
	c.Lookup(2, true)
	c.Lookup(2, true)
	if st := c.Stats(); st.PrefetchUsed != 2 {
		t.Errorf("PrefetchUsed = %d, want 2", st.PrefetchUsed)
	}
}

func TestCleanBlock(t *testing.T) {
	c := New(64*4, 2)
	l, _ := c.Fill(7, 0, 0, false)
	l.Dirty = true
	if !c.CleanBlock(7) {
		t.Error("CleanBlock must report dirty")
	}
	if c.CleanBlock(7) {
		t.Error("second CleanBlock must report clean")
	}
	if c.CleanBlock(1234) {
		t.Error("CleanBlock on absent block must be false")
	}
}

func TestRegionScans(t *testing.T) {
	const shift = mem.DefaultRegionShift
	c := New(1<<20, 16)
	r := mem.RegionAddr(9)
	// Fill blocks 0,2,4 of region 9; dirty 2 and 4.
	for _, i := range []uint{0, 2, 4} {
		l, _ := c.Fill(r.Block(shift, i), 0, 0, false)
		if i != 0 {
			l.Dirty = true
		}
	}
	dirty := c.DirtyBlocksInRegion(r, shift)
	if len(dirty) != 2 || dirty[0] != r.Block(shift, 2) || dirty[1] != r.Block(shift, 4) {
		t.Errorf("dirty = %v", dirty)
	}
	missing := c.MissingBlocksInRegion(r, shift, r.Block(shift, 1))
	// 16 blocks, 3 resident, 1 excluded (block 1 is absent but excluded).
	if len(missing) != 12 {
		t.Errorf("missing = %d blocks, want 12", len(missing))
	}
	for _, b := range missing {
		if c.Contains(b) {
			t.Errorf("missing list contains resident block %#x", uint64(b))
		}
		if b == r.Block(shift, 1) {
			t.Error("excluded block present in missing list")
		}
	}
}

// Property: residency never exceeds capacity and a filled block is always
// immediately resident.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		c := New(64*32, 4) // 8 sets x 4 ways
		rng := rand.New(rand.NewSource(seed))
		resident := 0
		for _, r := range raw {
			b := mem.BlockAddr(r % 128)
			switch rng.Intn(3) {
			case 0:
				was := c.Contains(b)
				_, ev := c.Fill(b, 0, 0, false)
				if !c.Contains(b) {
					return false
				}
				if !was && !ev.Valid {
					resident++
				}
				if was && ev.Valid {
					return false // refill must not evict
				}
			case 1:
				c.Lookup(b, true)
			case 2:
				if _, ok := c.Invalidate(b); ok {
					resident--
				}
			}
			if resident > 32 || resident < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMSHRTable(t *testing.T) {
	tb := NewMSHRTable(2)
	if tb.Cap() != 2 || tb.Len() != 0 || tb.Full() {
		t.Fatal("fresh table state wrong")
	}
	m, merged, ok := tb.Allocate(10, true, 100)
	if !ok || merged || m.Block != 10 || !m.Demand {
		t.Fatalf("first allocate: m=%+v merged=%v ok=%v", m, merged, ok)
	}
	m2, merged, ok := tb.Allocate(10, false, 101)
	if !ok || !merged || m2 != m || len(m.Waiters) != 2 {
		t.Fatal("merge failed")
	}
	if !m.Demand {
		t.Error("demand flag lost on merge")
	}
	tb.Allocate(11, false, 0)
	if _, _, ok := tb.Allocate(12, true, 0); ok {
		t.Error("allocation must fail when full")
	}
	if tb.Stalls != 1 || tb.Allocs != 2 || tb.Merges != 1 {
		t.Errorf("counters: %+v", tb)
	}
	if e, ok := tb.Complete(10); !ok || len(e.Waiters) != 2 {
		t.Error("complete lost waiters")
	}
	if _, ok := tb.Complete(10); ok {
		t.Error("double complete must fail")
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
}

func TestMSHRPrefetchUpgrade(t *testing.T) {
	tb := NewMSHRTable(4)
	m, _, _ := tb.Allocate(5, false, 0) // prefetch, no waiter token
	if m.Demand || len(m.Waiters) != 0 {
		t.Fatal("prefetch entry should have no demand/waiters")
	}
	tb.Allocate(5, true, 7)
	if !m.Demand {
		t.Error("demand merge must upgrade the entry")
	}
}

func TestMSHRCapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMSHRTable(0)
}
