package sim

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"bump/internal/cache"
	"bump/internal/mem"
	"bump/internal/snapshot"
)

func profileBytes(p *Profile) []byte {
	w := snapshot.NewWriter()
	writeProfile(w, p)
	return bytes.Clone(w.Body())
}

// driveProfiles applies n random profiler events over a small set of
// regions to every profile alike.
func driveProfiles(rng *rand.Rand, n int, ps ...*Profile) {
	for i := 0; i < n; i++ {
		b := mem.BlockAddr(rng.Intn(1 << 14))
		kind := rng.Intn(6)
		for _, p := range ps {
			switch kind {
			case 0, 1:
				p.OnDemandAccess(b)
			case 2:
				p.OnDRAMRead(b, i%2 == 0)
			case 3:
				p.OnEvict(b, false)
			case 4:
				p.OnDirty(b)
			default:
				if i%2 == 0 {
					p.OnDRAMWrite(b)
				} else {
					p.OnWriteEpochEnd(b)
				}
			}
		}
	}
}

// TestProfileRestoreBehavesLikeLive restores a profile with open
// generations and keeps driving it alongside the live original: the
// rebuilt indexes must grow and churn exactly like the live ones, so
// counters and re-encoded bytes stay identical, through Flush too.
func TestProfileRestoreBehavesLikeLive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	live := NewProfile(mem.DefaultRegionShift)
	driveProfiles(rng, 200, live)
	if len(live.readGens) == 0 || len(live.writeGens) == 0 {
		t.Fatal("no open generations to restore")
	}
	restored := NewProfile(mem.DefaultRegionShift)
	if err := readProfile(snapshot.NewBodyReader(profileBytes(live)), restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(profileBytes(restored), profileBytes(live)) {
		t.Fatal("restored profile re-encodes differently")
	}
	driveProfiles(rng, 50000, live, restored)
	if !bytes.Equal(profileBytes(restored), profileBytes(live)) {
		t.Fatal("restored profile diverged from the live one")
	}
	live.Flush()
	restored.Flush()
	if restored.ProfileCounters != live.ProfileCounters || len(restored.readGens)+len(restored.writeGens) != 0 {
		t.Fatalf("after Flush: restored %+v, live %+v", restored.ProfileCounters, live.ProfileCounters)
	}
}

// profileSection encodes a profile section with the given read and
// write generation regions.
func profileSection(reads, writes []uint64) []byte {
	w := snapshot.NewWriter()
	w.Section("profile")
	w.U32(uint32(mem.DefaultRegionShift))
	w.Any(ProfileCounters{})
	w.U32(uint32(len(reads)))
	for _, r := range reads {
		w.U64(r)
		w.U64(1) // pattern
		w.U64(0) // reads
	}
	w.U32(uint32(len(writes)))
	for _, r := range writes {
		w.U64(r)
		w.U64(1) // dirtied
		w.U64(0) // writebacks
		w.Bool(false)
	}
	return w.Body()
}

func TestReadProfileRejectsDuplicateRegions(t *testing.T) {
	if err := readProfile(snapshot.NewBodyReader(profileSection([]uint64{3, 9}, []uint64{3, 9})), NewProfile(mem.DefaultRegionShift)); err != nil {
		t.Fatalf("distinct regions: %v", err)
	}
	for name, body := range map[string][]byte{
		"read":  profileSection([]uint64{3, 9, 3}, nil),
		"write": profileSection(nil, []uint64{9, 9}),
	} {
		err := readProfile(snapshot.NewBodyReader(body), NewProfile(mem.DefaultRegionShift))
		if err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("%s generations: readProfile = %v, want a duplicate-region error", name, err)
		}
	}
}

func TestReadDirtyCountsRejectsDuplicateRegions(t *testing.T) {
	section := func(counts ...[2]int64) []byte {
		w := snapshot.NewWriter()
		w.U32(uint32(len(counts)))
		for _, c := range counts {
			w.U64(uint64(c[0]))
			w.I64(c[1])
		}
		return w.Body()
	}
	dirty := cache.NewAddrIndex(0)
	if err := readDirtyCounts(snapshot.NewBodyReader(section([2]int64{5, 2}, [2]int64{6, 1})), dirty); err != nil {
		t.Fatalf("distinct regions: %v", err)
	}
	w := snapshot.NewWriter()
	writeDirtyCounts(w, dirty)
	if !bytes.Equal(w.Body(), section([2]int64{5, 2}, [2]int64{6, 1})) {
		t.Fatal("dirty counts do not round-trip")
	}
	for name, tc := range map[string]struct {
		body []byte
		want string
	}{
		"duplicate": {section([2]int64{5, 2}, [2]int64{5, 1}), "duplicate"},
		"zero":      {section([2]int64{5, 0}), "out of range"},
	} {
		err := readDirtyCounts(snapshot.NewBodyReader(tc.body), cache.NewAddrIndex(0))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: readDirtyCounts = %v, want an error containing %q", name, err, tc.want)
		}
	}
}
