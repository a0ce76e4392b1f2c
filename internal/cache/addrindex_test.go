package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// checkIndex compares x against the reference map: same size, every
// reference key present with its slot, and every key x holds known to
// the reference. It also checks the probe-run invariant backward-shift
// deletion must preserve: no empty cell lies between a key's home and
// its cell.
func checkIndex(t *testing.T, x *AddrIndex, ref map[uint64]int32) {
	t.Helper()
	if x.Len() != len(ref) {
		t.Fatalf("Len = %d, reference has %d", x.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := x.Get(k); !ok || got != want {
			t.Fatalf("Get(%#x) = %d,%v, want %d", k, got, ok, want)
		}
	}
	keys := x.AppendKeys(nil)
	if len(keys) != len(ref) {
		t.Fatalf("AppendKeys returned %d keys, want %d", len(keys), len(ref))
	}
	for _, k := range keys {
		if _, ok := ref[k]; !ok {
			t.Fatalf("index holds key %#x the reference does not", k)
		}
	}
	for i, c := range x.cells {
		if !c.used {
			continue
		}
		for j := x.home(c.key); j != uint64(i); j = (j + 1) & x.mask {
			if !x.cells[j].used {
				t.Fatalf("key %#x in cell %d is cut off from its home %d by empty cell %d", c.key, i, x.home(c.key), j)
			}
		}
	}
}

// indexOp is one operation applied alike to an index and to its
// reference map.
type indexOp struct {
	kind byte // 0 Get, 1 GetOrInsert, 2 Set, 3 Delete
	key  uint64
	slot int32
}

func applyOp(t *testing.T, x *AddrIndex, ref map[uint64]int32, op indexOp) {
	t.Helper()
	want, present := ref[op.key]
	switch op.kind % 4 {
	case 0:
		if got, ok := x.Get(op.key); ok != present || got != want {
			t.Fatalf("Get(%#x) = %d,%v, want %d,%v", op.key, got, ok, want, present)
		}
	case 1:
		got, found := x.GetOrInsert(op.key, op.slot)
		if found != present {
			t.Fatalf("GetOrInsert(%#x) found = %v, want %v", op.key, found, present)
		}
		if !present {
			want = op.slot
			ref[op.key] = op.slot
		}
		if got != want {
			t.Fatalf("GetOrInsert(%#x) = %d, want %d", op.key, got, want)
		}
	case 2:
		x.Set(op.key, op.slot)
		ref[op.key] = op.slot
	case 3:
		got, ok := x.Delete(op.key)
		if ok != present || got != want {
			t.Fatalf("Delete(%#x) = %d,%v, want %d,%v", op.key, got, ok, want, present)
		}
		delete(ref, op.key)
	}
}

// collidingKeys returns n distinct keys that all hash to the same home
// cell of an index with the given number of cells.
func collidingKeys(cells, n int, home uint64) []uint64 {
	x := &AddrIndex{}
	x.alloc(cells)
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if x.home(k) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestAddrIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, universe := range []uint64{8, 64, 1 << 12, 1 << 40} {
		x := NewAddrIndex(0)
		ref := map[uint64]int32{}
		for i := 0; i < 20000; i++ {
			op := indexOp{kind: byte(rng.Intn(4)), key: rng.Uint64() % universe, slot: rng.Int31()}
			applyOp(t, x, ref, op)
			if i%997 == 0 {
				checkIndex(t, x, ref)
			}
		}
		checkIndex(t, x, ref)
	}
}

// TestAddrIndexWrappingCollisions forces one long probe run that starts
// in the last cells and wraps past the end of the table, then deletes
// from it in 200 random orders: backward-shift deletion has to move
// entries across the wrap without cutting any off.
func TestAddrIndexWrappingCollisions(t *testing.T) {
	const cells = 16
	for home := uint64(cells - 3); home < cells; home++ {
		keys := collidingKeys(cells, 5, home)
		// A second cluster homed at cell 0 interleaves with the wrapped
		// run, so deletions must also leave entries that are at home.
		keys = append(keys, collidingKeys(cells, 3, 0)...)
		perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
		for trial := 0; trial < 200; trial++ {
			rand.New(rand.NewSource(int64(trial))).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			x := NewAddrIndex(len(keys)) // 16 cells: no growth
			if len(x.cells) != cells {
				t.Fatalf("index has %d cells, want %d", len(x.cells), cells)
			}
			ref := map[uint64]int32{}
			for i, k := range keys {
				applyOp(t, x, ref, indexOp{kind: 1, key: k, slot: int32(i)})
			}
			checkIndex(t, x, ref)
			for _, p := range perm {
				applyOp(t, x, ref, indexOp{kind: 3, key: keys[p]})
				checkIndex(t, x, ref)
			}
			if len(x.cells) != cells {
				t.Fatalf("index grew to %d cells without new keys", len(x.cells))
			}
		}
	}
}

// TestAddrIndexChurnGrowsWithOccupancy holds occupancy steady under heavy
// insert/delete churn: without tombstones the table must not grow, and
// growth during churn must keep every key reachable.
func TestAddrIndexChurnGrowsWithOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := NewAddrIndex(0)
	ref := map[uint64]int32{}
	live := []uint64{}
	next := uint64(0)
	for round, target := range []int{5, 40, 300, 300, 2000} {
		for i := 0; i < 50000; i++ {
			if len(live) < target || rng.Intn(2) == 0 {
				next += uint64(rng.Intn(3) + 1)
				applyOp(t, x, ref, indexOp{kind: 1, key: next, slot: int32(i)})
				live = append(live, next)
			}
			if len(live) > target {
				j := rng.Intn(len(live))
				applyOp(t, x, ref, indexOp{kind: 3, key: live[j]})
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		checkIndex(t, x, ref)
		if want := cellsFor(target); len(x.cells) > want {
			t.Errorf("round %d: %d live keys (target %d) in %d cells, want at most %d", round, len(live), target, len(x.cells), want)
		}
	}
	x.Reset()
	if x.Len() != 0 || len(x.AppendKeys(nil)) != 0 {
		t.Fatal("Reset left keys behind")
	}
}

func TestAddrIndexAppendKeys(t *testing.T) {
	x := NewAddrIndex(0)
	want := []uint64{0, 1, 63, 1 << 20, 1<<63 + 5}
	for i, k := range want {
		x.Set(k, int32(i))
	}
	got := x.AppendKeys(nil)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
}

// FuzzAddrIndex decodes the input as an operation stream over a small
// key universe (so operations hit, collide and wrap), checks every
// answer against a map, and checks the table's invariants at the end.
func FuzzAddrIndex(f *testing.F) {
	f.Add([]byte{1, 0, 1, 8, 1, 16, 3, 8, 0, 16})
	f.Add([]byte{1, 13, 1, 29, 1, 45, 1, 61, 3, 13, 3, 45, 0, 61, 0, 29})
	var grow []byte
	for k := byte(0); k < 120; k++ {
		grow = append(grow, 1, k)
	}
	for k := byte(0); k < 120; k += 3 {
		grow = append(grow, 3, k)
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, data []byte) {
		x := NewAddrIndex(0)
		ref := map[uint64]int32{}
		for i := 0; i+1 < len(data); i += 2 {
			key := uint64(data[i+1])
			if data[i]&0x80 != 0 {
				key |= 1 << 63 // exercise the hash's upper bits
			}
			applyOp(t, x, ref, indexOp{kind: data[i], key: key, slot: int32(i)})
		}
		checkIndex(t, x, ref)
	})
}
