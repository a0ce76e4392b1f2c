package main

import (
	"time"

	"bump/internal/cache"
	"bump/internal/core"
	"bump/internal/dram"
	"bump/internal/event"
	"bump/internal/mem"
	"bump/internal/memctrl"
	"bump/internal/prefetch"
	"bump/internal/sim"
	"bump/internal/workload"
)

// opTimer accumulates per-call timings of one layer operation.
type opTimer struct {
	total time.Duration
	n     int
}

func (t *opTimer) since(t0 time.Time) {
	t.total += time.Since(t0)
	t.n++
}

// ns returns the mean call time in nanoseconds, less the cost of reading
// the clock around the call.
func (t opTimer) ns(clock float64) float64 {
	if t.n == 0 {
		return 0
	}
	v := float64(t.total.Nanoseconds())/float64(t.n) - clock
	if v < 0 {
		return 0
	}
	return v
}

// clockCost measures the mean cost of one time.Now/time.Since pair, the
// overhead every per-call timing carries.
func clockCost() float64 {
	const n = 200_000
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / n
}

// replayBatch is how many memory requests are enqueued before the
// controller is drained.
const replayBatch = 16

// layerReplay feeds the access stream workload.Generator produces for
// each preset through the layers' public functions — L1 and LLC lookups
// and fills, the MSHR table, the BuMP predictor, both prefetchers, the
// simulator's profiler, and the memory controller over DRAM on an event
// engine — timing each call. It is a single-core, in-order replay: it
// reproduces each layer's call mix, not the full system's timing.
func layerReplay(presets []workload.Params, seed int64, accesses int, v map[string]float64) error {
	clock := clockCost()
	var next, l1, llcLookup, llcFill, mshrOp, touch, sms, stride, prof, memReq, dispatch opTimer
	for _, p := range presets {
		gen, err := workload.NewGenerator(p, seed)
		if err != nil {
			return err
		}
		accs := make([]mem.Access, accesses)
		t0 := time.Now()
		for i := range accs {
			accs[i] = gen.Next()
		}
		next.total += time.Since(t0)
		next.n += len(accs)

		eng := event.New()
		d := dram.New(dram.DefaultConfig())
		mc, err := memctrl.New(memctrl.DefaultConfig(memctrl.OpenRow, memctrl.RegionInterleave), d, eng)
		if err != nil {
			return err
		}
		mc.Handler = func(memctrl.Completion) {}
		var (
			l1c      = cache.New(32<<10, 2)
			llc      = cache.New(4<<20, 16)
			mshrs    = cache.NewMSHRTable(10)
			pred     = core.New(core.DefaultConfig())
			smsPf    = prefetch.DefaultSMS()
			stridePf = prefetch.DefaultStride()
			profile  = sim.NewProfile(mem.DefaultRegionShift)
			inflight []mem.BlockAddr
			pending  []mem.Request
		)
		flush := func() {
			t0 := time.Now()
			for _, r := range pending {
				r.Issue = eng.Now()
				mc.Enqueue(r)
			}
			eng.Drain()
			memReq.total += time.Since(t0)
			memReq.n += len(pending)
			pending = pending[:0]
		}
		for i, a := range accs {
			b := a.Addr.Block()
			write := a.Type == mem.Store
			t0 := time.Now()
			line := l1c.Lookup(b, true)
			l1.since(t0)
			if line == nil {
				line, _ = l1c.Fill(b, a.PC, 0, false)
			} else {
				line.Dirty = line.Dirty || write
				continue
			}
			line.Dirty = write

			t0 = time.Now()
			ll := llc.Lookup(b, true)
			llcLookup.since(t0)
			miss := ll == nil
			t0 = time.Now()
			pred.Touch(a.PC, b, write)
			touch.since(t0)
			t0 = time.Now()
			smsPf.OnAccess(0, a.PC, b, miss)
			sms.since(t0)
			t0 = time.Now()
			stridePf.OnAccess(0, a.PC, b, miss)
			stride.since(t0)
			t0 = time.Now()
			profile.OnDemandAccess(b)
			prof.since(t0)
			if !miss {
				ll.Dirty = ll.Dirty || write
				continue
			}

			if mshrs.Full() {
				t0 = time.Now()
				e, ok := mshrs.Complete(inflight[0])
				mshrOp.since(t0)
				if ok {
					mshrs.Release(e)
				}
				inflight = inflight[1:]
			}
			t0 = time.Now()
			_, merged, _ := mshrs.Allocate(b, true, uint64(i))
			mshrOp.since(t0)
			t0 = time.Now()
			mshrs.Lookup(b)
			mshrOp.since(t0)
			if !merged {
				inflight = append(inflight, b)
			}

			pred.ReadMiss(a.PC, b)
			profile.OnDRAMRead(b, write)
			pending = append(pending, mem.Request{Op: mem.MemRead, Addr: b.Addr(), PC: a.PC})
			t0 = time.Now()
			nl, ev := llc.Fill(b, a.PC, 0, false)
			llcFill.since(t0)
			nl.Dirty = write
			if ev.Valid {
				pred.Evict(ev.Line.Block, ev.Line.Dirty)
				smsPf.OnEvict(ev.Line.Block)
				profile.OnEvict(ev.Line.Block, ev.Line.Dirty)
				if ev.Line.Dirty {
					pending = append(pending, mem.Request{Op: mem.MemWrite, Addr: ev.Line.Block.Addr()})
				}
			}
			if len(pending) >= replayBatch {
				flush()
			}
		}
		flush()

		// Event dispatch alone: post closure events at stream-derived
		// delays, then drain.
		de := event.New()
		fn := func() {}
		for i := 0; i < len(accs); i += 1024 {
			end := min(i+1024, len(accs))
			for _, a := range accs[i:end] {
				de.After(uint64(a.Addr>>mem.BlockShift)%512+1, fn)
			}
			t0 := time.Now()
			n := de.Drain()
			dispatch.total += time.Since(t0)
			dispatch.n += int(n)
		}
	}
	v["workload.next_ns"] = next.ns(0)
	v["cache.l1.lookup_ns"] = l1.ns(clock)
	v["cache.llc.lookup_ns"] = llcLookup.ns(clock)
	v["cache.llc.fill_ns"] = llcFill.ns(clock)
	v["cache.mshr.op_ns"] = mshrOp.ns(clock)
	v["core.touch_ns"] = touch.ns(clock)
	v["prefetch.sms.access_ns"] = sms.ns(clock)
	v["prefetch.stride.access_ns"] = stride.ns(clock)
	v["sim.profile.access_ns"] = prof.ns(clock)
	v["memctrl.request_ns"] = memReq.ns(0)
	v["event.dispatch_ns"] = dispatch.ns(0)
	return nil
}
