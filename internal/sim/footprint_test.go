package sim

import (
	"runtime"
	"testing"

	"bump/internal/workload"
)

// TestSimNewFootprint bounds what building the paper's 16-core system
// allocates. The LLC line array is most of it (4 MB / 64 B × 24 B =
// 1.5 MB), and a service runs one system per pool slot at once, so a
// re-added per-line field or a table pre-sized for its worst case
// shows up as memory in every concurrent job.
func TestSimNewFootprint(t *testing.T) {
	const limit = 2_500_000 // bytes
	cfg := DefaultConfig(BuMP, workload.WebSearch())
	best := ^uint64(0)
	// Minimum of a few builds: TotalAlloc is process-wide, and a
	// concurrent allocation elsewhere only ever adds to one sample.
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("sim.New allocates %d bytes", best)
	if best > limit {
		t.Fatalf("sim.New(DefaultConfig) allocates %d bytes, want <= %d", best, limit)
	}
}
