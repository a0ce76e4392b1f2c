package main

import (
	"encoding/json"
	"runtime/metrics"
	"syscall"
	"time"

	"bump/internal/sim"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampler tracks the peak of the Go runtime's resident memory — all
// memory it has mapped less what it has returned to the operating
// system — sampled every 20 ms while it runs (memory is mapped and
// released far more slowly than that).
type memSampler struct {
	stop chan struct{}
	done chan float64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-m.stop:
				m.done <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// peakMB stops the sampler and returns the peak in MB.
func (m *memSampler) peakMB() float64 {
	close(m.stop)
	return <-m.done
}

// counts are the simulated (deterministic) counts summed over a set of
// results.
type counts struct {
	Events, Cycles, Instructions    uint64
	LLCLookups, LLCMisses           uint64
	PrefetchUsed, PrefetchUnused    uint64
	MSHRStalls, WindowStalls        uint64
	RowHits, DRAMAccesses, ACTs     uint64
	Reads, ReadQueueDelay           uint64
	BulkReads, EagerWrites, NOCMsgs uint64
}

func (c *counts) add(r sim.Result) {
	c.Events += r.Events
	c.Cycles += r.Cycles
	c.Instructions += r.Instructions
	c.LLCLookups += r.LLC.Lookups
	c.LLCMisses += r.LLC.Misses
	c.PrefetchUsed += r.LLC.PrefetchUsed
	c.PrefetchUnused += r.LLC.PrefetchUnused
	c.MSHRStalls += r.Counters.MSHRStalls
	c.WindowStalls += r.Counters.WindowStalls
	c.RowHits += r.DRAM.RowHits
	c.DRAMAccesses += r.DRAM.Accesses()
	c.ACTs += r.DRAM.Activations
	c.Reads += r.Ctrl.Reads
	c.ReadQueueDelay += r.Ctrl.ReadQueueDelay
	c.BulkReads += r.Counters.BulkReads
	c.EagerWrites += r.Counters.EagerWrites
	c.NOCMsgs += r.NOC.ControlMsgs + r.NOC.DataMsgs
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metrics renders the counts as the per-layer simulated-count metrics.
func (c counts) metrics(v map[string]float64) {
	v["sim.events"] = float64(c.Events)
	v["sim.cycles"] = float64(c.Cycles)
	v["sim.ipc"] = ratio(c.Instructions, c.Cycles)
	v["cache.llc.miss_ratio"] = ratio(c.LLCMisses, c.LLCLookups)
	v["cache.llc.prefetch_used_ratio"] = ratio(c.PrefetchUsed, c.PrefetchUsed+c.PrefetchUnused)
	v["sim.mshr_stalls"] = float64(c.MSHRStalls)
	v["sim.window_stalls"] = float64(c.WindowStalls)
	v["dram.row_hit_ratio"] = ratio(c.RowHits, c.DRAMAccesses)
	v["dram.activations"] = float64(c.ACTs)
	v["memctrl.read_queue_delay_cyc"] = ratio(c.ReadQueueDelay, c.Reads)
	v["core.bulk_reads"] = float64(c.BulkReads)
	v["core.bulk_writes"] = float64(c.EagerWrites)
	v["noc.msgs"] = float64(c.NOCMsgs)
}

// canonical renders a result as the JSON bytes the determinism checks
// compare.
func canonical(r sim.Result) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		return []byte("unencodable: " + err.Error())
	}
	return b
}
