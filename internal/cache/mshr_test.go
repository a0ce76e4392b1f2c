package cache

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"bump/internal/mem"
	"bump/internal/snapshot"
)

func mshrBytes(t *MSHRTable) []byte {
	w := snapshot.NewWriter()
	t.SnapshotTo(w)
	return bytes.Clone(w.Body())
}

// driveMSHRs applies n random Allocate/Complete operations over a small
// block universe to every table alike, failing if their answers differ.
func driveMSHRs(t *testing.T, rng *rand.Rand, n int, tables ...*MSHRTable) {
	t.Helper()
	for i := 0; i < n; i++ {
		b := mem.BlockAddr(rng.Intn(4096))
		if rng.Intn(3) == 0 {
			var first *MSHR
			for j, tb := range tables {
				e, ok := tb.Complete(b)
				if j == 0 {
					first = e
				} else if ok != (first != nil) || ok && (e.Block != first.Block || e.Demand != first.Demand || len(e.Waiters) != len(first.Waiters)) {
					t.Fatalf("op %d: Complete(%d) diverged on table %d", i, b, j)
				}
				if ok {
					tb.Release(e)
				}
			}
			continue
		}
		demand, waiter := rng.Intn(2) == 0, uint64(i+1)
		var merged0, ok0 bool
		for j, tb := range tables {
			_, merged, ok := tb.Allocate(b, demand, waiter)
			if j == 0 {
				merged0, ok0 = merged, ok
			} else if merged != merged0 || ok != ok0 {
				t.Fatalf("op %d: Allocate(%d) diverged on table %d", i, b, j)
			}
		}
	}
}

// TestMSHRRestoreBehavesLikeLive restores a table with a few entries
// outstanding, then keeps driving it alongside the live original far past
// the restored size: the rebuilt index has to grow, recycle and answer
// exactly as the live one does, and both must re-encode identically.
func TestMSHRRestoreBehavesLikeLive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	live := NewMSHRTable(1 << 16)
	driveMSHRs(t, rng, 40, live)
	if live.Len() == 0 {
		t.Fatal("no outstanding entries to restore")
	}
	restored := NewMSHRTable(1 << 16)
	if err := restored.RestoreFrom(snapshot.NewBodyReader(mshrBytes(live))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mshrBytes(restored), mshrBytes(live)) {
		t.Fatal("restored table re-encodes differently")
	}
	driveMSHRs(t, rng, 20000, live, restored)
	if live.Len() < 1000 {
		t.Fatalf("only %d entries outstanding; the index never grew past its restore size", live.Len())
	}
	if !bytes.Equal(mshrBytes(restored), mshrBytes(live)) {
		t.Fatal("restored table diverged from the live one")
	}
}

func TestMSHRRestoreRejectsDuplicateBlock(t *testing.T) {
	w := snapshot.NewWriter()
	w.Section("mshr")
	w.U32(4) // capacity
	w.U64(0) // Allocs
	w.U64(0) // Merges
	w.U64(0) // Stalls
	w.U32(2) // entries
	for range [2]int{} {
		w.U64(7) // block
		w.Bool(true)
		w.U32(0) // waiters
	}
	err := NewMSHRTable(4).RestoreFrom(snapshot.NewBodyReader(w.Body()))
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("RestoreFrom = %v, want a duplicate-block error", err)
	}
}
