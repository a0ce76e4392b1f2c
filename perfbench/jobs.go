package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bump/internal/service"
	"bump/internal/sim"
	"bump/internal/workload"
)

// jobsWorkload is a closed loop of jobsClients clients calling
// Client.Run on one in-process bumpd. Every job is tiny — its simulation
// takes far less than the client's poll interval — so per-job service
// cost dominates: submit, queueing, wire/JSON, result encoding and
// Client.Wait's polling. Every fourth job repeats an earlier spec, so
// result-cache reads and coalescing run beside fresh executions.
type jobsWorkload struct {
	specs  []service.JobSpec
	checks []int // spec indices re-simulated with sim.RunOne
}

// Short-jobs shape: jobsClients closed-loop clients; each timed section
// runs jobsPerTarget fresh jobs per preset or scenario plus the repeats,
// each job a short window on the paper's system.
const (
	jobsClients   = 2
	jobsPerTarget = 6
	jobsWarmup    = 20_000
	jobsMeasure   = 40_000
)

func (j *jobsWorkload) prepare(seed int64, scale float64, _ string) error {
	rng := rand.New(rand.NewSource(seed))
	// A balanced mix: each of the six presets and the write-heavy
	// bursty-writer scenario runs under jobsPerTarget mechanisms; the
	// seed picks which, the simulation seeds and the order.
	targets := []service.JobSpec{{Scenario: "bursty-writer"}}
	for _, p := range workload.All() {
		targets = append(targets, service.JobSpec{Workload: p.Name})
	}
	mechs := sim.Mechanisms()
	perTarget := max(1, int(jobsPerTarget*scale))
	var fresh []service.JobSpec
	for _, t := range targets {
		for _, m := range rng.Perm(len(mechs))[:perTarget] {
			s := t
			s.Mechanism = mechs[m].String()
			s.Seed = rng.Int63n(1_000_000) + 1
			s.WarmupCycles = jobsWarmup
			s.MeasureCycles = jobsMeasure
			fresh = append(fresh, s)
		}
	}
	rng.Shuffle(len(fresh), func(a, b int) { fresh[a], fresh[b] = fresh[b], fresh[a] })
	// Every fourth job repeats an earlier one.
	for _, s := range fresh {
		if len(j.specs)%4 == 3 {
			j.specs = append(j.specs, j.specs[rng.Intn(len(j.specs))])
		}
		j.specs = append(j.specs, s)
	}
	for _, i := range rng.Perm(len(j.specs))[:min(6, len(j.specs))] {
		j.checks = append(j.checks, i)
	}
	return nil
}

// jobsEnv is one bumpd and the clients' shared service.Client.
type jobsEnv struct {
	d      *daemon
	client *service.Client
}

func (e jobsEnv) close() {
	e.client.Close()
	e.d.Close()
}

func (j *jobsWorkload) setup(traced bool) (env, error) {
	d, err := startDaemon(daemonOptions{traced: traced})
	if err != nil {
		return nil, err
	}
	return jobsEnv{d: d, client: service.NewClient(d.URL)}, nil
}

// jobTiming is one job's client-side timing.
type jobTiming struct {
	latency, submit, wait float64
}

func (j *jobsWorkload) measure(e env) (*iteration, error) {
	je := e.(jobsEnv)
	traced := je.d.Tracer != nil
	it := &iteration{outputs: make([][]byte, len(j.specs))}
	timings := make([]jobTiming, len(j.specs))
	results := make([]*sim.Result, len(j.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < jobsClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(j.specs) {
					return
				}
				results[i], timings[i] = runJob(je.client, j.specs[i])
			}
		}()
	}
	wg.Wait()

	for i, r := range results {
		it.attempted++
		if r == nil {
			it.failed++
			continue
		}
		it.results++
		it.events += r.Events
		it.counts.add(*r)
		it.outputs[i] = canonical(*r)
		it.latencies = append(it.latencies, timings[i].latency)
	}
	if traced {
		j.traceLayers(je, timings, it)
	}
	return it, nil
}

// runJob runs one job as Client.Run does, calling Submit and Wait itself
// to time them apart.
func runJob(c *service.Client, spec service.JobSpec) (*sim.Result, jobTiming) {
	ctx := context.Background()
	t0 := time.Now()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, jobTiming{}
	}
	var tm jobTiming
	tm.submit = time.Since(t0).Seconds()
	if !st.State.Terminal() {
		t1 := time.Now()
		st, err = c.Wait(ctx, st.ID)
		if err != nil {
			return nil, jobTiming{}
		}
		tm.wait = time.Since(t1).Seconds()
	}
	tm.latency = time.Since(t0).Seconds()
	if st.State != service.StateDone || st.Result == nil {
		return nil, tm
	}
	return st.Result, tm
}

// traceLayers reads a traced block's client timings, the pool's spans
// and counters, and the transport split. Times are means per job.
func (j *jobsWorkload) traceLayers(je jobsEnv, timings []jobTiming, it *iteration) {
	n := float64(len(timings))
	var submit, wait float64
	for _, t := range timings {
		submit += t.submit
		wait += t.wait
	}
	totals, _ := spanTotals(je.d.Tracer)
	cache := je.d.Pool.Stats().Cache
	wire := je.client.WireStats().Calls
	it.extra = map[string]float64{
		"client.submit_s":         submit / n,
		"client.wait_s":           wait / n,
		"client.polls_per_job":    float64(je.d.WireJobs.Load()+je.d.Polls.Load()) / n,
		"service.queue_s":         totals["queue"] / n,
		"service.execute_s":       totals["execute"] / n,
		"service.cache_hit_ratio": ratio(cache.Hits, cache.Hits+cache.Misses),
		"wire.call_share":         ratio(wire, wire+uint64(je.d.Requests.Load())),
	}
}

// check re-simulates sampled jobs with sim.RunOne and compares the result
// bytes with the service's.
func (j *jobsWorkload) check(its []*iteration) (attempted, failed int) {
	for _, i := range j.checks {
		attempted++
		cfg, err := j.specs[i].Config()
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

func (j *jobsWorkload) layers(tr *traceRun) error {
	var cfgs []sim.Config
	for _, i := range j.checks {
		cfg, err := j.specs[i].Config()
		if err != nil {
			return err
		}
		cfgs = append(cfgs, cfg)
	}
	return tr.common(cfgs, workload.All())
}
