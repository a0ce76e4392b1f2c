package sim

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bump/internal/blob"
	"bump/internal/snapshot"
	"bump/internal/workload"
)

// TestWarmStoreEvictsOldFormatCheckpoint: a blob-backed warm store
// (bumpd -warm-dir) left behind by a build with the previous snapshot
// format — version 2, whose cache lines still carried the filling PC
// and core — must cost one re-simulated warmup after an upgrade, never
// a failed job. The reader rejects a checkpoint on its header version
// before it decodes any body byte, so stamping version 2 into a current
// checkpoint's header is exactly what a version-2 checkpoint looks like
// to this build.
func TestWarmStoreEvictsOldFormatCheckpoint(t *testing.T) {
	cfg := smallConfig(BuMP, workload.WebSearch(), 43)
	key, ok := WarmKey(cfg)
	if !ok {
		t.Fatal("config not warm-cacheable")
	}
	dir := t.TempDir()

	// The previous build's run left its warmup checkpoint on disk.
	bs, err := blob.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWarmStoreBacked(4, bs).Run(cfg); err != nil {
		t.Fatal(err)
	}
	cur, ok := bs.Get(key)
	if !ok {
		t.Fatal("leader did not spill its checkpoint to the blob store")
	}
	bs.Close()
	old := bytes.Clone(cur)
	binary.LittleEndian.PutUint16(old[8:], 2) // header: magic (8B) | version (u16)
	if err := os.WriteFile(filepath.Join(dir, key), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mustNewSys(t, cfg).Restore(bytes.NewReader(old)); err == nil {
		t.Fatalf("a version-2 checkpoint restored into a version-%d build", snapshot.FormatVersion)
	}

	// The upgraded build reopens the directory and runs the same key.
	bs, err = blob.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	ws := NewWarmStoreBacked(4, bs)
	res, err := ws.Run(cfg)
	if err != nil {
		t.Fatalf("old-format checkpoint failed the run: %v", err)
	}
	cold, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, cold) {
		t.Fatal("run after evicting the old checkpoint diverges from a cold run")
	}
	st := ws.Stats()
	if st.Evicted != 1 || st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("evicted %d, hits %d, misses %d; want the old checkpoint evicted and the warmup re-simulated (1, 0, 1)",
			st.Evicted, st.Hits, st.Misses)
	}
	fresh, ok := bs.Get(key)
	if !ok || !bytes.Equal(fresh, cur) {
		t.Fatal("blob store does not hold the re-simulated current-format checkpoint")
	}
	if v := binary.LittleEndian.Uint16(fresh[8:]); v != snapshot.FormatVersion {
		t.Fatalf("re-simulated checkpoint has format version %d, want %d", v, snapshot.FormatVersion)
	}
}
