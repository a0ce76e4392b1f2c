package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"bump/internal/service"
	"bump/internal/sim"
	"bump/internal/workload"
)

// fleetWorkload is a fairness-cap checkpoint-tree sweep submitted as one
// /v1/batch through service.Client to an in-process coordinator over two
// in-process bumpd workers with blob-backed warm stores. Each preset's
// points share one trunk, simulated once up to a cut late in the
// measurement window, and each point restores the cut and simulates only
// a short tail. The time goes to the two trunks, the tails, snapshot
// encode/restore, warm-store resolution, routing, and awaiting (the
// coordinator polls each point's worker every 250 ms).
type fleetWorkload struct {
	specs  []service.JobSpec
	checks []int  // spec indices re-simulated with sim.RunOne
	dir    string // scratch directory for the workers' checkpoint stores
	iter   int
}

// fleetPresets are the sweep's two preset families.
var fleetPresets = []string{"data-serving", "web-search"}

// Sweep shape: 16 fairness caps per preset over the paper's default
// windows (sim.DefaultConfig); the trunk is cut 95% into the measurement
// window, where every point forks.
const fleetCaps = 16

// fleetTrunkSeeds are the simulation seeds of the fleetPresets trunks.
var fleetTrunkSeeds = []int64{779411, 153552}

func (f *fleetWorkload) prepare(seed int64, scale float64, dir string) error {
	f.dir = dir
	def := sim.DefaultConfig(sim.BuMP, workload.Params{})
	warmup := uint64(float64(def.WarmupCycles) * scale)
	measure := uint64(float64(def.MeasureCycles) * scale)
	cut := warmup + measure*19/20
	caps := max(2, int(fleetCaps*scale))

	// Each family's trunk is the same on every run, whatever the seed:
	// the coordinator notices a finished point only at its next 250 ms
	// status poll, so trunks that differed run to run would move the
	// sweep's end across poll ticks. The trunk seeds are constants, chosen
	// so that the coordinator's ring over the workers' fixed URLs places
	// the two families on different workers. cluster.max_worker_share
	// reports the placement, so a routing or warm-key change shows there
	// instead of changing the simulated work.
	var families []service.JobSpec
	for i, preset := range fleetPresets {
		families = append(families, service.JobSpec{
			Workload:      preset,
			Mechanism:     "bump",
			Seed:          fleetTrunkSeeds[i],
			WarmupCycles:  warmup,
			MeasureCycles: measure,
			ForkAt:        cut,
			ForkCycles:    []uint64{cut},
		})
	}
	// The benchmark seed picks each family's fairness caps and the points
	// re-simulated by the check.
	rng := rand.New(rand.NewSource(seed))
	for _, base := range families {
		for _, c := range rng.Perm(48)[:caps] {
			s := base
			s.MaxRowHitStreak = c + 1
			f.specs = append(f.specs, s)
		}
	}
	f.checks = []int{rng.Intn(caps), caps + rng.Intn(caps)}
	return nil
}

func (f *fleetWorkload) setup(traced bool) (env, error) {
	f.iter++
	return startFleet(filepath.Join(f.dir, fmt.Sprintf("fleet-%d", f.iter)), traced)
}

func (fl *fleet) close() { fl.Close() }

func (f *fleetWorkload) measure(e env) (*iteration, error) {
	fl := e.(*fleet)
	it := &iteration{
		outputs:   make([][]byte, len(f.specs)),
		latencies: make([]float64, len(f.specs)),
	}
	var mu sync.Mutex
	t0 := time.Now()
	res, err := fl.Client.Batch(context.Background(), service.BatchSpec{Specs: f.specs}, func(pt service.BatchPoint) {
		mu.Lock()
		defer mu.Unlock()
		if pt.Index >= 0 && pt.Index < len(it.latencies) && it.latencies[pt.Index] == 0 {
			it.latencies[pt.Index] = time.Since(t0).Seconds()
		}
	})
	end := time.Since(t0).Seconds()
	it.attempted = len(f.specs)
	if err != nil || len(res.Points) != len(f.specs) {
		it.failed = len(f.specs)
		return it, nil
	}
	perWorker := make(map[string]int)
	for i, pt := range res.Points {
		if it.latencies[i] == 0 {
			it.latencies[i] = end
		}
		if pt.Status.State != service.StateDone || pt.Status.Result == nil {
			it.failed++
			continue
		}
		r := *pt.Status.Result
		it.results++
		it.events += r.Events
		it.counts.add(r)
		it.outputs[i] = canonical(r)
		perWorker[pt.Worker]++
	}
	maxShare := 0
	for _, n := range perWorker {
		maxShare = max(maxShare, n)
	}
	it.extra = map[string]float64{"cluster.max_worker_share": float64(maxShare) / float64(len(f.specs))}
	if fl.Tracer != nil {
		f.traceLayers(fl, res, it.extra)
	}
	return it, nil
}

// traceLayers reads the traced iteration's coordinator and worker spans
// and the workers' warm-store and blob counters. Span times are means
// per sweep point.
func (f *fleetWorkload) traceLayers(fl *fleet, res service.BatchResult, v map[string]float64) {
	n := float64(len(f.specs))
	var route, await, overshoot float64
	execEnd := make(map[string]float64) // config hash -> worker execute end
	worker := make(map[string]float64)
	for _, d := range fl.Workers {
		totals, ends := spanTotals(d.Tracer)
		for k, x := range totals {
			worker[k] += x
		}
		for h, t := range ends["execute"] {
			execEnd[h] = t
		}
	}
	for _, pt := range res.Points {
		exp, ok := fl.Tracer.Export(pt.Status.ID, 1, "bumpctl")
		if !ok {
			continue
		}
		for _, ev := range exp.TraceEvents {
			switch ev.Name {
			case "route":
				route += ev.Dur / 1e6
			case "await":
				await += ev.Dur / 1e6
				if t, ok := execEnd[pt.Status.Hash]; ok {
					overshoot += (ev.Ts+ev.Dur)/1e6 - t
				}
			}
		}
	}
	v["cluster.route_s"] = route / n
	v["cluster.await_s"] = await / n
	v["cluster.await_overshoot_s"] = overshoot / n
	v["service.queue_s"] = worker["queue"] / n
	v["service.execute_s"] = worker["execute"] / n
	v["warm.resolve_s"] = worker["warm.resolve"] / n
	v["warm.restore_s"] = worker["restore"] / n
	v["warm.trunk_extend_s"] = worker["trunk.extend"] / n

	ws := fl.warmStats()
	v["warm.fork_hit_ratio"] = ratio(ws.ForkHits, ws.ForkHits+ws.ForkMisses)
	v["warm.branch_cycles_share"] = ratio(ws.BranchCyclesSimulated,
		ws.BranchCyclesSimulated+ws.TrunkCyclesSimulated+ws.WarmupCyclesSimulated)
	var hits, lookups uint64
	for _, d := range fl.Workers {
		c := d.Pool.Stats().Cache
		hits += c.Hits
		lookups += c.Hits + c.Misses
	}
	v["service.cache_hit_ratio"] = ratio(hits, lookups)
	v["blob.replicated_bytes"] = fl.replicatedBytes()
	wire := fl.Client.WireStats().Calls
	v["wire.call_share"] = ratio(wire, wire+uint64(fl.Requests.Load()))
}

// check re-simulates one point per family cold with sim.RunOne (ForkAt
// included) and compares the result bytes with the fleet's.
func (f *fleetWorkload) check(its []*iteration) (attempted, failed int) {
	for _, i := range f.checks {
		attempted++
		cfg, err := f.specs[i].Config()
		if err != nil {
			failed++
			continue
		}
		res, err := sim.RunOne(cfg)
		if err != nil || string(canonical(res)) != string(its[0].outputs[i]) {
			failed++
		}
	}
	return attempted, failed
}

func (f *fleetWorkload) layers(tr *traceRun) error {
	var cfgs []sim.Config
	var presets []workload.Params
	for _, i := range f.checks {
		cfg, err := f.specs[i].Config()
		if err != nil {
			return err
		}
		cfgs = append(cfgs, cfg)
		presets = append(presets, cfg.Workload)
	}
	if err := tr.snapshotCost(cfgs[0], cfgs[0].ForkAt); err != nil {
		return err
	}
	return tr.common(cfgs, presets)
}
