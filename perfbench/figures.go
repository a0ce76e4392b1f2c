package main

import (
	"fmt"
	"math/rand"
	"time"

	"bump"
	"bump/internal/sim"
	"bump/internal/stats"
	"bump/internal/workload"
)

// figuresWorkload regenerates the paper's Figs. 2, 3, 5, 9, 10, 13 and
// Tables I and IV in process through bump.NewFigures: all six presets
// under all seven mechanisms plus the six characterisation runs, with
// the harness's own GOMAXPROCS-bounded prefill. Nearly all of its time is
// simulation.
type figuresWorkload struct {
	opts bump.FigureOptions
	// checks are the runs re-simulated with sim.RunOne after the run.
	checks []figureRun
	last   *bump.Figures
}

// figureRun names one of the harness's 48 runs.
type figureRun struct {
	mech    sim.Mechanism
	w       workload.Params
	profile bool // characterisation run (Base-open, prefetcher off)
}

// Simulation windows of the paper-figures workload: long enough for the
// fidelity rows to be meaningful, short enough for several regenerations
// per run.
const (
	figWarmup  = 250_000
	figMeasure = 500_000
)

func (f *figuresWorkload) prepare(seed int64, scale float64, _ string) error {
	f.opts = bump.FigureOptions{
		Seed:          seed,
		WarmupCycles:  uint64(figWarmup * scale),
		MeasureCycles: uint64(figMeasure * scale),
	}
	rng := rand.New(rand.NewSource(seed))
	runs := f.runs()
	for _, i := range rng.Perm(len(runs))[:2] {
		f.checks = append(f.checks, runs[i])
	}
	return nil
}

// runs lists the harness's runs in a fixed order.
func (f *figuresWorkload) runs() []figureRun {
	var out []figureRun
	for _, w := range bump.Workloads() {
		for _, m := range bump.Mechanisms() {
			out = append(out, figureRun{mech: m, w: w})
		}
		out = append(out, figureRun{mech: sim.BaseOpen, w: w, profile: true})
	}
	return out
}

// config mirrors the harness's configuration of a run.
func (f *figuresWorkload) config(r figureRun) sim.Config {
	cfg := sim.DefaultConfig(r.mech, r.w)
	cfg.Seed = f.opts.Seed + 1
	cfg.WarmupCycles = f.opts.WarmupCycles
	cfg.MeasureCycles = f.opts.MeasureCycles
	cfg.DisablePrefetcher = r.profile
	return cfg
}

func (f *figuresWorkload) result(fig *bump.Figures, r figureRun) sim.Result {
	if r.profile {
		return fig.RunProfile(r.w)
	}
	return fig.Run(r.mech, r.w)
}

type figuresEnv struct{ fig *bump.Figures }

func (figuresEnv) close() {}

// setup builds the harness and validates every run's configuration —
// all a regeneration does before simulating — so that work moved into
// harness or configuration construction shows as set-up time.
func (f *figuresWorkload) setup(bool) (env, error) {
	fig := bump.NewFigures(f.opts)
	for _, r := range f.runs() {
		if err := f.config(r).Validate(); err != nil {
			return nil, err
		}
	}
	return figuresEnv{fig}, nil
}

func (f *figuresWorkload) measure(e env) (*iteration, error) {
	fig := e.(figuresEnv).fig
	it := &iteration{}
	t0 := time.Now()
	tables := []func() *bump.Table{
		fig.Fig2, fig.Fig3, fig.Fig5, fig.Table1, fig.Fig9, fig.Fig10, fig.Fig13, fig.Table4,
	}
	// The harness's prefill hides when each run finishes, so a latency
	// sample is the time until a table is ready.
	for _, gen := range tables {
		t := gen()
		it.latencies = append(it.latencies, time.Since(t0).Seconds())
		it.attempted++
		if t == nil || len(t.String()) == 0 {
			it.failed++
		}
	}
	for _, r := range f.runs() {
		res := f.result(fig, r)
		it.results++
		it.attempted++
		if res.Cycles == 0 || res.Events == 0 {
			it.failed++
		}
		it.events += res.Events
		it.counts.add(res)
		it.outputs = append(it.outputs, canonical(res))
	}
	f.last = fig
	return it, nil
}

// check re-simulates sampled runs with sim.RunOne and compares the
// result bytes with the harness's.
func (f *figuresWorkload) check(its []*iteration) (attempted, failed int) {
	runs := f.runs()
	for _, c := range f.checks {
		attempted++
		res, err := sim.RunOne(f.config(c))
		if err != nil {
			failed++
			continue
		}
		for i, r := range runs {
			if r == c && string(canonical(res)) != string(its[0].outputs[i]) {
				failed++
			}
		}
	}
	return attempted, failed
}

// paperRef is one headline row of the paper the reproduction is scored
// against, in percent: its value and how to compute ours from a
// regeneration.
type paperRef struct {
	name  string
	paper float64
	repro func(fig *bump.Figures) float64
}

// paperRefs are the nine headline values of the paper (MICRO 2014):
// energy per access and speedup from Figs. 9 and 10, row-buffer hit
// ratios from Fig. 13. Base-open's speedup is quoted there as -1 to -2%;
// the midpoint is used.
var paperRefs = []paperRef{
	{"fidelity.epa_vs_close_pp", 34, func(f *bump.Figures) float64 { return epaSaving(f, sim.BaseClose) }},
	{"fidelity.epa_vs_open_pp", 23, func(f *bump.Figures) float64 { return epaSaving(f, sim.BaseOpen) }},
	{"fidelity.bump_speedup_pp", 9, func(f *bump.Figures) float64 { return speedup(f, sim.BuMP) }},
	{"fidelity.open_speedup_pp", -1.5, func(f *bump.Figures) float64 { return speedup(f, sim.BaseOpen) }},
	{"fidelity.rowhit_open_pp", 21, func(f *bump.Figures) float64 { return rowHit(f, sim.BaseOpen) }},
	{"fidelity.rowhit_sms_pp", 30, func(f *bump.Figures) float64 { return rowHit(f, sim.SMSOnly) }},
	{"fidelity.rowhit_vwq_pp", 36, func(f *bump.Figures) float64 { return rowHit(f, sim.VWQOnly) }},
	{"fidelity.rowhit_smsvwq_pp", 44, func(f *bump.Figures) float64 { return rowHit(f, sim.SMSVWQ) }},
	{"fidelity.rowhit_bump_pp", 55, func(f *bump.Figures) float64 { return rowHit(f, sim.BuMP) }},
}

// epaSaving is BuMP's mean memory energy-per-access saving over ref, in
// percent.
func epaSaving(f *bump.Figures, ref sim.Mechanism) float64 {
	var v []float64
	for _, w := range bump.Workloads() {
		v = append(v, 1-f.Run(sim.BuMP, w).EPATotal/f.Run(ref, w).EPATotal)
	}
	return 100 * stats.Mean(v)
}

// speedup is m's mean throughput gain over Base-close, in percent.
func speedup(f *bump.Figures, m sim.Mechanism) float64 {
	var v []float64
	for _, w := range bump.Workloads() {
		v = append(v, stats.Speedup(f.Run(sim.BaseClose, w).IPC(), f.Run(m, w).IPC()))
	}
	return 100 * stats.Mean(v)
}

// rowHit is m's mean DRAM row-buffer hit ratio, in percent.
func rowHit(f *bump.Figures, m sim.Mechanism) float64 {
	var v []float64
	for _, w := range bump.Workloads() {
		v = append(v, f.Run(m, w).RowHitRatio())
	}
	return 100 * stats.Mean(v)
}

// fidelity fills the fidelity metrics from a regeneration: each row's
// distance from the paper in percentage points, and their mean.
func fidelity(fig *bump.Figures, v map[string]float64) {
	var errs []float64
	for _, ref := range paperRefs {
		d := ref.repro(fig) - ref.paper
		if d < 0 {
			d = -d
		}
		errs = append(errs, d)
		v[ref.name] = d
	}
	v["fidelity_err_pp"] = mean(errs)
}

func (f *figuresWorkload) layers(tr *traceRun) error {
	if f.last == nil {
		return fmt.Errorf("paper-figures: no regeneration to score")
	}
	fidelity(f.last, tr.v)
	var cfgs []sim.Config
	for _, w := range bump.Workloads() {
		cfgs = append(cfgs, f.config(figureRun{mech: sim.BuMP, w: w}))
	}
	return tr.common(cfgs, bump.Workloads())
}
