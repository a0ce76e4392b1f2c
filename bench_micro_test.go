package bump

import (
	"testing"

	"bump/internal/cache"
	"bump/internal/mem"
	"bump/internal/sim"
	"bump/internal/workload"
)

// Micro benchmarks for the simulator's per-access tables, one layer at a
// time. Each replays a web-search access stream; ns/op is per access.
//
//	go test -run='^$' -bench='MSHRTable|ProfileAccess|SimNew' -benchmem

// microStream returns n block addresses of core 0's web-search stream.
func microStream(b *testing.B, n int) []mem.BlockAddr {
	b.Helper()
	gen, err := workload.NewGenerator(workload.WebSearch(), workload.CoreSeed(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	blocks := make([]mem.BlockAddr, n)
	for i := range blocks {
		blocks[i] = gen.Next().Addr.Block()
	}
	return blocks
}

// BenchmarkMSHRTable drives an LLC-style fill queue: every access
// allocates (or merges onto) an MSHR and looks it up, and once 256 fills
// are outstanding the oldest completes and its entry is recycled.
func BenchmarkMSHRTable(b *testing.B) {
	const depth = 256
	blocks := microStream(b, 1<<16)
	t := cache.NewMSHRTable(depth)
	var inflight [depth]mem.BlockAddr
	head, n := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blocks[i&(len(blocks)-1)]
		if t.Full() {
			if e, ok := t.Complete(inflight[head]); ok {
				t.Release(e)
			}
			head, n = (head+1)%depth, n-1
		}
		if _, merged, _ := t.Allocate(blk, true, uint64(i)+1); !merged {
			inflight[(head+n)%depth] = blk
			n++
		}
		t.Lookup(blk)
	}
}

// profileOp is one recorded Profile call.
type profileOp struct {
	kind  uint8 // 0 demand access, 1 DRAM read, 2 eviction
	block mem.BlockAddr
}

// BenchmarkProfileAccess replays the Profile calls an LLC makes for a
// web-search stream: a demand access per access, and on a miss a DRAM
// read plus the eviction of the displaced line. The LLC itself runs once
// up front, so only the profiler is timed.
func BenchmarkProfileAccess(b *testing.B) {
	blocks := microStream(b, 1<<17)
	llc := cache.New(4<<20, 16)
	ops := make([]profileOp, 0, 2*len(blocks))
	for _, blk := range blocks {
		ops = append(ops, profileOp{0, blk})
		if llc.Lookup(blk, true) != nil {
			continue
		}
		ops = append(ops, profileOp{1, blk})
		if _, ev := llc.Fill(blk, 0, 0, false); ev.Valid {
			ops = append(ops, profileOp{2, ev.Line.Block})
		}
	}
	p := sim.NewProfile(mem.DefaultRegionShift)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i%len(ops)]
		switch op.kind {
		case 0:
			p.OnDemandAccess(op.block)
		case 1:
			p.OnDRAMRead(op.block, false)
		default:
			p.OnEvict(op.block, false)
		}
	}
}

// BenchmarkSimNew measures building the paper's 16-core system. Run it
// with -benchmem: B/op exposes any table pre-sized for its worst case.
func BenchmarkSimNew(b *testing.B) {
	cfg := DefaultConfig(MechBuMP, WebSearch())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
