// Command sweep runs parameter sweeps and emits CSV for plotting: every
// (workload, mechanism) pair, the Fig. 11 design grid, a multi-seed
// confidence run, or the FR-FCFS fairness-cap sweep.
//
// Every mode expresses its matrix as a batch of service job specs. By
// default the batch executes on an in-process service.Pool (bounded
// workers, duplicate coalescing, result caching); with -server the same
// batch is submitted to a running bumpd or bumpctl instance (one POST
// /v1/batch request), so many sweep clients can share one simulation
// service and its cache. A comma-separated -server list of bumpd
// workers embeds an in-process cluster coordinator instead: points are
// routed by warm-affinity key across the fleet with automatic failover,
// and a per-worker warm/cache report is printed after the sweep.
//
// With -warm the in-process pool shares warmup-end checkpoints between
// sweep points whose configurations differ only in measured parameters:
// the fairness mode's sixteen row-hit-streak caps then simulate one
// warmup total instead of sixteen. (Against a -server, enable warm
// starts on bumpd instead.) Adding -fork-at pushes the shared prefix
// past the warmup boundary: the listed cycles become checkpoint-tree
// cuts on the canonical trunk, every fairness point defers its cap to
// the deepest cut, and the sweep costs one trunk plus sixteen short
// branch tails instead of sixteen full measurement windows.
//
// Usage:
//
//	sweep -mode systems  > systems.csv
//	sweep -mode design   > design.csv
//	sweep -mode seeds -workload web-search -n 5 > seeds.csv
//	sweep -mode fairness -workload web-search -warm > fairness.csv
//	sweep -mode fairness -workload web-search -warm -fork-at 1200000,1600000 > fairness.csv
//	sweep -mode systems -server http://localhost:8344 > systems.csv
//	sweep -mode fairness -server http://host1:8344,http://host2:8344,http://host3:8344 > fairness.csv
//	sweep -mode scenarios > scenarios.csv      # built-in scenario library
//	sweep -mode fairness -scenario phase-swap -warm > fairness.csv
//	sweep -mode systems -scenario my-scenario.json > systems.csv
//
// With -scenario (a built-in name or a JSON spec file), every mode runs
// its matrix against the multi-phase, multi-tenant scenario instead of a
// stationary workload; the scenario is part of each job's config hash,
// so caching, coalescing and warm starts work exactly as for presets.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bump"
	"bump/internal/cluster"
	"bump/internal/scenario"
	"bump/internal/service"
	"bump/internal/sim"
)

// runner executes a spec batch and returns results in batch order.
type runner interface {
	runAll(specs []service.JobSpec) ([]sim.Result, error)
}

// unwrapBatch converts an ordered batch aggregate into bare results,
// failing on the first point that did not complete.
func unwrapBatch(res service.BatchResult) ([]sim.Result, error) {
	payloads, err := res.Results()
	if err != nil {
		return nil, err
	}
	results := make([]sim.Result, len(payloads))
	for i, p := range payloads {
		results[i] = *p.Result
	}
	return results, nil
}

// localRunner drives an in-process pool: the whole batch is submitted
// up front (deduplicated, cached, executed on bounded workers), then
// collected in order.
type localRunner struct{ pool *service.Pool }

func (l localRunner) runAll(specs []service.JobSpec) ([]sim.Result, error) {
	res, err := service.RunBatch(context.Background(), l.pool, service.BatchSpec{Specs: specs}, nil)
	if err != nil {
		return nil, err
	}
	return unwrapBatch(res)
}

// remoteRunner submits the batch to a bumpd or bumpctl server — one
// POST /v1/batch when the server speaks it, falling back to per-job
// submit-and-wait against older daemons.
type remoteRunner struct{ client *service.Client }

func (r remoteRunner) runAll(specs []service.JobSpec) ([]sim.Result, error) {
	ctx := context.Background()
	res, err := r.client.Batch(ctx, service.BatchSpec{Specs: specs}, nil)
	if err == nil {
		return unwrapBatch(res)
	}
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || (apiErr.Code != 404 && apiErr.Code != 405) {
		return nil, err
	}
	// Pre-batch server: submit each spec and wait each one down.
	ids := make([]string, len(specs))
	terminal := make([]*service.JobStatus, len(specs))
	for i, spec := range specs {
		st, err := r.client.Submit(ctx, spec)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			s := st
			terminal[i] = &s
		}
		ids[i] = st.ID
	}
	results := make([]sim.Result, len(specs))
	for i := range specs {
		st := terminal[i]
		if st == nil {
			s, err := r.client.Wait(ctx, ids[i])
			if err != nil {
				return nil, err
			}
			st = &s
		}
		if st.State != service.StateDone || st.Result == nil {
			return nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		}
		results[i] = *st.Result
	}
	return results, nil
}

// clusterRunner embeds an in-process coordinator over a worker fleet:
// each point is routed to its warm-affinity worker with failover, so a
// measured-parameter sweep warms once per distinct structural config
// fleet-wide.
type clusterRunner struct{ coord *cluster.Coordinator }

func (c clusterRunner) runAll(specs []service.JobSpec) ([]sim.Result, error) {
	res, err := c.coord.Batch(context.Background(), service.BatchSpec{Specs: specs}, nil)
	if err != nil {
		return nil, err
	}
	return unwrapBatch(res)
}

func main() {
	var (
		mode         = flag.String("mode", "systems", "sweep mode: systems, design, seeds, fairness, scenarios")
		workloadName = flag.String("workload", "web-search", "workload for -mode seeds and -mode fairness")
		scenarioFlag = flag.String("scenario", "", "run the matrix against a scenario instead of workload presets: a built-in name or a JSON spec file")
		n            = flag.Int("n", 5, "seed count for -mode seeds")
		warmup       = flag.Uint64("warmup", 700_000, "warmup cycles")
		measure      = flag.Uint64("measure", 1_500_000, "measurement cycles")
		server       = flag.String("server", "", "bumpd/bumpctl base URL, or a comma-separated bumpd worker list to coordinate in-process; empty runs fully in-process")
		warm         = flag.Bool("warm", false, "share warmup-end checkpoints between in-process sweep points that differ only in measured parameters")
		forkAt       = flag.String("fork-at", "", "comma-separated absolute cycles inside the measurement window where -mode fairness points fork from a shared canonical trunk (deepest cut binds the streak cap; implies deferred measured parameters)")
		jsonOnly     = flag.Bool("json-only", false, "talk HTTP/JSON to -server even when it advertises a binary wire listener")
		workers      = flag.Int("workers", 0, "parallel shards per simulation (0 or 1 = sequential; a resource knob only — results, coalescing and caching are identical at any value)")
	)
	flag.Parse()

	// -fork-at: parse the checkpoint-tree cut list once, up front, so a
	// malformed list fails before any simulation runs.
	var forkCuts []uint64
	if *forkAt != "" {
		for _, part := range strings.Split(*forkAt, ",") {
			cut, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("-fork-at %q: %v", part, err))
			}
			if cut <= *warmup || cut >= *warmup+*measure {
				fatal(fmt.Errorf("-fork-at %d is outside the measurement window (%d, %d)", cut, *warmup, *warmup+*measure))
			}
			if len(forkCuts) > 0 && cut <= forkCuts[len(forkCuts)-1] {
				fatal(fmt.Errorf("-fork-at cuts must be strictly increasing"))
			}
			forkCuts = append(forkCuts, cut)
		}
	}

	var pool *service.Pool
	var coord *cluster.Coordinator
	var cl *service.Client
	var run runner
	switch {
	case *server != "" && strings.Contains(*server, ","):
		// A comma-separated worker list: embed an in-process coordinator
		// over the fleet (warm-affinity routing + failover, no separate
		// bumpctl needed).
		if *warm {
			fmt.Fprintln(os.Stderr, "sweep: -warm applies to in-process runs; enable warm starts on each worker with bumpd -warm")
		}
		var err error
		coord, err = cluster.New(context.Background(), cluster.Options{
			Workers:  strings.Split(*server, ","),
			Registry: cluster.RegistryOptions{DisableWire: *jsonOnly},
		})
		if err != nil {
			fatal(err)
		}
		defer coord.Close()
		if up := coord.Registry().UpCount(); up == 0 {
			fatal(fmt.Errorf("no healthy workers among %s", *server))
		}
		run = clusterRunner{coord: coord}
	case *server != "":
		if *warm {
			fmt.Fprintln(os.Stderr, "sweep: -warm applies to in-process runs; enable warm starts on bumpd with its -warm flag")
		}
		cl = service.NewClient(*server)
		cl.DisableWire = *jsonOnly
		run = remoteRunner{client: cl}
	default:
		pool = service.NewPool(service.Options{WarmStarts: *warm})
		defer pool.Close()
		run = localRunner{pool: pool}
	}
	// After the sweep, show where the fleet spent and saved its warmup
	// work — the per-worker view of warm-affinity routing — and how the
	// transport behaved (wire fast-path vs HTTP fallback, conn reuse).
	reportWire := func(ws service.WireStats) {
		if ws.Calls == 0 && ws.Fallbacks == 0 {
			return
		}
		fmt.Fprintf(os.Stderr, "sweep: wire: %d calls, %d fallbacks, %d dials, %d reused conns\n",
			ws.Calls, ws.Fallbacks, ws.Dials, ws.Reuses)
	}
	defer func() {
		if cl != nil {
			reportWire(cl.WireStats())
			if h, err := cl.Health(context.Background()); err == nil {
				ws := h.Stats.Warm
				fmt.Fprintf(os.Stderr, "sweep: server warm: %d hits/%d misses, %d fork hits/%d fork misses, %d warmup cycles reused\n",
					ws.Hits, ws.Misses, ws.ForkHits, ws.ForkMisses, ws.WarmupCyclesReused)
			}
		}
		if coord == nil {
			return
		}
		// Refresh the stats snapshot so the report reflects this sweep,
		// not the last periodic probe.
		coord.Registry().ProbeOnce(context.Background())
		for _, w := range coord.Topology().Workers {
			fmt.Fprintf(os.Stderr, "sweep: %s %s [%s] warm %d hits/%d misses, cache %d hits/%d misses, %d executions\n",
				w.ID, w.URL, w.State, w.Stats.Warm.Hits, w.Stats.Warm.Misses,
				w.Stats.Cache.Hits, w.Stats.Cache.Misses, w.Stats.Executions)
		}
		var ws service.WireStats
		for _, wk := range coord.Registry().Workers() {
			s := wk.Client.WireStats()
			ws.Calls += s.Calls
			ws.Fallbacks += s.Fallbacks
			ws.Dials += s.Dials
			ws.Reuses += s.Reuses
		}
		reportWire(ws)
	}()

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()

	baseSpec := func(m bump.Mechanism, wl string) service.JobSpec {
		return service.JobSpec{
			Workload:      wl,
			Mechanism:     m.String(),
			WarmupCycles:  *warmup,
			MeasureCycles: *measure,
			Workers:       *workers,
		}
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

	// With -scenario, every mode's specs swap their workload for the
	// scenario. A built-in name travels by name (a remote bumpd resolves
	// it, so all clients coalesce on the same hash); a spec file travels
	// inline.
	scenarioLabel := ""
	applyScenario := func(spec service.JobSpec) service.JobSpec { return spec }
	if *scenarioFlag != "" {
		byName := func() {
			scenarioLabel = "scenario:" + *scenarioFlag
			applyScenario = func(spec service.JobSpec) service.JobSpec {
				spec.Workload = ""
				spec.Scenario = *scenarioFlag
				return spec
			}
		}
		if _, statErr := os.Stat(*scenarioFlag); statErr == nil && !scenario.Known(*scenarioFlag) {
			// A spec file travels inline.
			sc, err := scenario.Load(*scenarioFlag)
			if err != nil {
				fatal(err)
			}
			scenarioLabel = "scenario:" + sc.Name
			applyScenario = func(spec service.JobSpec) service.JobSpec {
				spec.Workload = ""
				spec.ScenarioSpec = sc
				return spec
			}
		} else if scenario.Known(*scenarioFlag) || *server != "" {
			// Built-ins travel by name so every client coalesces on the
			// same hash — and against a -server, so does any name the
			// daemon registered at startup (bumpd -scenario) that this
			// process cannot resolve locally; the daemon rejects names
			// it does not know either.
			byName()
		} else {
			_, err := scenario.Resolve(*scenarioFlag, 0) // produce the library-naming error
			fatal(err)
		}
	}
	// wlRows yields the workload axis: the scenario when set, else the
	// six presets.
	type wlRow struct {
		label string
		spec  func(m bump.Mechanism) service.JobSpec
	}
	wlRows := func() []wlRow {
		if scenarioLabel != "" {
			return []wlRow{{scenarioLabel, func(m bump.Mechanism) service.JobSpec {
				return applyScenario(baseSpec(m, ""))
			}}}
		}
		rows := make([]wlRow, 0, 6)
		for _, wl := range bump.Workloads() {
			name := wl.Name
			rows = append(rows, wlRow{name, func(m bump.Mechanism) service.JobSpec {
				return baseSpec(m, name)
			}})
		}
		return rows
	}

	switch *mode {
	case "systems":
		var specs []service.JobSpec
		var labels []string
		for _, row := range wlRows() {
			for _, m := range bump.Mechanisms() {
				specs = append(specs, row.spec(m))
				labels = append(labels, row.label)
			}
		}
		results, err := run.runAll(specs)
		if err != nil {
			fatal(err)
		}
		w.Write([]string{"workload", "mechanism", "row_hit", "ipc", "epa_nj", "read_coverage", "read_overfetch", "write_coverage"})
		for i, res := range results {
			w.Write([]string{labels[i], specs[i].Mechanism, f(res.RowHitRatio()), f(res.IPC()),
				f(res.EPATotal * 1e9), f(res.ReadCoverage()), f(res.ReadOverfetch()), f(res.WriteCoverage())})
		}
	case "scenarios":
		// The built-in scenario library × all mechanisms: the per-scenario
		// sweep output (colocation, diurnal load, phase swaps, write
		// bursts) next to the stationary-workload systems matrix.
		if scenarioLabel != "" {
			fatal(fmt.Errorf("-mode scenarios sweeps the built-in library; use -mode systems -scenario %s for one scenario", *scenarioFlag))
		}
		var specs []service.JobSpec
		var labels []string
		for _, name := range scenario.Library() {
			for _, m := range bump.Mechanisms() {
				spec := baseSpec(m, "")
				spec.Scenario = name
				specs = append(specs, spec)
				labels = append(labels, name)
			}
		}
		results, err := run.runAll(specs)
		if err != nil {
			fatal(err)
		}
		w.Write([]string{"scenario", "mechanism", "row_hit", "ipc", "epa_nj", "read_coverage", "read_overfetch", "write_coverage"})
		for i, res := range results {
			w.Write([]string{labels[i], specs[i].Mechanism, f(res.RowHitRatio()), f(res.IPC()),
				f(res.EPATotal * 1e9), f(res.ReadCoverage()), f(res.ReadOverfetch()), f(res.WriteCoverage())})
		}
	case "design":
		var specs []service.JobSpec
		var labels []string
		for _, row := range wlRows() {
			for _, shift := range []uint{9, 10, 11} {
				blocks := uint(1) << (shift - 6)
				for _, pct := range []uint{25, 50, 75, 100} {
					spec := row.spec(bump.MechBuMP)
					spec.RegionShift = shift
					spec.DensityThreshold = blocks * pct / 100
					if spec.DensityThreshold == 0 {
						spec.DensityThreshold = 1
					}
					specs = append(specs, spec)
					labels = append(labels, row.label)
				}
			}
		}
		results, err := run.runAll(specs)
		if err != nil {
			fatal(err)
		}
		w.Write([]string{"workload", "region_bytes", "threshold_blocks", "row_hit", "epa_nj", "read_coverage", "read_overfetch"})
		for i, res := range results {
			w.Write([]string{labels[i], strconv.Itoa(1 << specs[i].RegionShift), strconv.Itoa(int(specs[i].DensityThreshold)),
				f(res.RowHitRatio()), f(res.EPATotal * 1e9), f(res.ReadCoverage()), f(res.ReadOverfetch())})
		}
	case "fairness":
		// Sixteen FR-FCFS row-hit streak caps over one workload (or
		// scenario). The cap is a measured parameter, so with -warm all
		// sixteen points restore one shared warm checkpoint.
		point := pointSpec(*workloadName, scenarioLabel, baseSpec, applyScenario)
		var specs []service.JobSpec
		for cap := 0; cap < 16; cap++ {
			spec := point()
			spec.MaxRowHitStreak = cap
			if len(forkCuts) > 0 {
				// Defer the cap to the deepest cut: all sixteen points
				// share the canonical trunk through that cycle, so the
				// sweep costs one trunk plus sixteen short branch tails.
				spec.ForkCycles = forkCuts
				spec.ForkAt = forkCuts[len(forkCuts)-1]
			}
			specs = append(specs, spec)
		}
		results, err := run.runAll(specs)
		if err != nil {
			fatal(err)
		}
		w.Write([]string{"streak_cap", "row_hit", "ipc", "epa_nj", "read_qdelay"})
		for i, res := range results {
			cap := "off"
			if specs[i].MaxRowHitStreak > 0 {
				cap = strconv.Itoa(specs[i].MaxRowHitStreak)
			}
			qd := 0.0
			if res.Ctrl.Reads > 0 {
				qd = float64(res.Ctrl.ReadQueueDelay) / float64(res.Ctrl.Reads)
			}
			w.Write([]string{cap, f(res.RowHitRatio()), f(res.IPC()), f(res.EPATotal * 1e9), f(qd)})
		}
		if pool != nil && *warm {
			st := pool.Stats()
			fmt.Fprintf(os.Stderr, "sweep: warm checkpoints: %d simulated / %d reused warmup cycles (%d hits, %d misses)\n",
				st.Warm.WarmupCyclesSimulated, st.Warm.WarmupCyclesReused, st.Warm.Hits, st.Warm.Misses)
			if len(forkCuts) > 0 {
				fmt.Fprintf(os.Stderr, "sweep: checkpoint tree: %d trunk / %d branch cycles simulated, %d fork cycles reused (%d fork hits, %d tree builds)\n",
					st.Warm.TrunkCyclesSimulated, st.Warm.BranchCyclesSimulated,
					st.Warm.ForkCyclesReused, st.Warm.ForkHits, st.Warm.ForkMisses)
			}
		}
	case "seeds":
		point := pointSpec(*workloadName, scenarioLabel, baseSpec, applyScenario)
		specs := make([]service.JobSpec, *n)
		seeds := make([]int64, *n)
		for i := range specs {
			seeds[i] = int64(i + 1)
			specs[i] = point()
			specs[i].Seed = seeds[i]
		}
		rs, err := run.runAll(specs)
		if err != nil {
			fatal(err)
		}
		w.Write([]string{"seed", "row_hit", "ipc", "epa_nj"})
		for i, r := range rs {
			w.Write([]string{strconv.FormatInt(seeds[i], 10), f(r.RowHitRatio()), f(r.IPC()), f(r.EPATotal * 1e9)})
		}
		a := bump.AggregateResults(rs)
		w.Write([]string{"mean", f(a.RowHitRatio), f(a.IPC), f(a.EPATotal * 1e9)})
		w.Write([]string{"ci95", f(a.RowHitRatioCI), f(a.IPCCI), f(a.EPATotalCI * 1e9)})
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// pointSpec returns the single-point spec builder for fairness/seeds
// modes: the scenario when -scenario is set, else the named workload.
func pointSpec(workloadName, scenarioLabel string,
	base func(bump.Mechanism, string) service.JobSpec,
	applyScenario func(service.JobSpec) service.JobSpec) func() service.JobSpec {
	if scenarioLabel != "" {
		return func() service.JobSpec { return applyScenario(base(bump.MechBuMP, "")) }
	}
	wl, ok := bump.WorkloadByName(workloadName)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", workloadName))
	}
	return func() service.JobSpec { return base(bump.MechBuMP, wl.Name) }
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
	os.Exit(1)
}
