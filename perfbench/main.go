// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload through the public entry points (the figures harness, the
// simulator, in-process bumpd pools and a bumpctl coordinator on
// loopback), checks every output, and prints one JSON object as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (wall, CPU, memory,
// throughput, latency, set-up time); with -trace 1 a separate traced run
// prints the per-layer ones (profile shares, per-call layer timings,
// service and cluster spans, simulated counts, fidelity against the
// paper). See README.md for the workloads and metric definitions.
//
// Usage:
//
//	perfbench -workload paper-figures -seed 1 -seconds 20 -trace 0
//
// Workloads: paper-figures, fleet-fork-sweep, short-jobs. Temporary
// files go under .bench_build/ of the working directory and are removed
// afterwards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// benchWorkload is one benchmark workload. A run alternates set-up, a timed
// section and teardown; iterations repeat until the run's time is spent.
type benchWorkload interface {
	// prepare derives the workload's inputs from the seed; dir is the
	// run's scratch directory.
	prepare(seed int64, scale float64, dir string) error
	// setup builds what the timed section needs; it is timed as setup_s.
	setup(traced bool) (env, error)
	// measure runs the timed section on env.
	measure(e env) (*iteration, error)
	// check verifies a finished run's outputs beyond the per-iteration
	// checks (sampled re-simulation against sim.RunOne); it is not timed.
	check(its []*iteration) (attempted, failed int)
	// layers reports the per-layer metrics of a traced run.
	layers(tr *traceRun) error
}

// env is a workload's set-up state; close tears it down.
type env interface{ close() }

// iteration is one timed section's measurements and outputs.
type iteration struct {
	wall    time.Duration
	cpu     time.Duration
	peakMB  float64
	results int
	events  uint64
	// latencies are per-result completion times in seconds.
	latencies []float64
	// outputs are the results as canonical JSON, in input order, for the
	// cross-iteration and cross-mode determinism checks.
	outputs [][]byte
	// counts are the simulated counts summed over the iteration's results.
	counts counts
	// attempted/failed count the iteration's operations and the ones
	// that did not finish or did not match.
	attempted, failed int
	// extra holds workload-specific per-layer values of a traced
	// iteration.
	extra map[string]float64
}

var workloads = map[string]func() benchWorkload{
	"paper-figures":    func() benchWorkload { return &figuresWorkload{} },
	"fleet-fork-sweep": func() benchWorkload { return &fleetWorkload{} },
	"short-jobs":       func() benchWorkload { return &jobsWorkload{} },
}

// setup_s comes from blocks of set-ups run back to back, one block after
// each iteration and at least minSetupBlocks in a run, so the samples
// spread over the whole run rather than one moment of a shared host. A
// block runs set-ups until setupBlock of set-up time has passed: hundreds
// of the cheap ones, about a dozen fleets. The budget is short because
// every fleet set-up leaves loopback connections in TIME_WAIT for a
// minute, and with thousands of them a fleet set-up took twice as long;
// with a longer budget the fleet's setup_s depended on how many set-ups
// the runs before it had done.
const (
	setupBlock     = 20 * time.Millisecond
	minSetupBlocks = 8
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks every workload's inputs (1 = full size; the smoke
	// test runs at 0.1).
	scale float64
	// workDir holds the run's temporary files, removed afterwards.
	workDir string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: paper-figures, fleet-fork-sweep or short-jobs")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	o.scale = 1
	o.workDir = ".bench_build"

	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one benchmark run and returns its report.
func run(o options) (*report, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.scale <= 0 || o.scale > 1 {
		return nil, fmt.Errorf("scale %v outside (0, 1]", o.scale)
	}
	dir, err := filepath.Abs(filepath.Join(o.workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	w := mk()
	if err := w.prepare(o.seed, o.scale, dir); err != nil {
		return nil, err
	}
	if o.trace {
		return runTraced(w, o)
	}

	var its []*iteration
	var setups []float64
	start := time.Now()
	for len(its) == 0 || time.Since(start).Seconds() < o.seconds {
		it, err := iterate(w, false)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
		if setups, err = setupBlockTimes(w, setups); err != nil {
			return nil, err
		}
	}
	for n := len(its); n < minSetupBlocks; n++ {
		if setups, err = setupBlockTimes(w, setups); err != nil {
			return nil, err
		}
	}

	attempted, failed := tally(its)
	a, f := w.check(its)
	attempted, failed = attempted+a, failed+f

	// The latency quantiles are taken over every result of the run
	// pooled, so that a short-jobs run's p90 rests on tens of samples
	// above it rather than the few of one iteration.
	var walls, cpus, peaks, rates, evRates, latencies []float64
	for _, it := range its {
		walls = append(walls, it.wall.Seconds())
		cpus = append(cpus, it.cpu.Seconds())
		peaks = append(peaks, it.peakMB)
		rates = append(rates, float64(it.results)/it.wall.Seconds())
		evRates = append(evRates, float64(it.events)/it.wall.Seconds())
		latencies = append(latencies, it.latencies...)
	}
	m, err := render(endToEnd, map[string]float64{
		"setup_s":          iqm(setups),
		"wall_s":           iqm(walls),
		"cpu_s":            iqm(cpus),
		"peak_rss_mb":      iqm(peaks),
		"results_per_s":    iqm(rates),
		"sim_events_per_s": iqm(evRates),
		"job_p50_s":        quantile(latencies, 0.5),
		"job_p90_s":        quantile(latencies, 0.9),
	})
	if err != nil {
		return nil, err
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// setupBlockTimes runs one block of set-ups and appends each one's
// duration (teardown excluded) to setups. The block starts from a
// collected heap, as an iteration does.
func setupBlockTimes(w benchWorkload, setups []float64) ([]float64, error) {
	runtime.GC()
	for spent := time.Duration(0); spent < setupBlock; {
		t0 := time.Now()
		e, err := w.setup(false)
		if err != nil {
			return setups, err
		}
		d := time.Since(t0)
		e.close()
		spent += d
		setups = append(setups, d.Seconds())
	}
	return setups, nil
}

// iterate runs one set-up, timed section and teardown. It collects the
// previous iteration's garbage first, so every iteration starts from the
// same heap.
func iterate(w benchWorkload, traced bool) (*iteration, error) {
	runtime.GC()
	t0 := time.Now()
	e, err := w.setup(traced)
	if err != nil {
		return nil, err
	}
	setupDur := time.Since(t0)
	defer e.close()
	mem := startMemSampler()
	c0 := cpuTime()
	t1 := time.Now()
	it, err := w.measure(e)
	wall, cpu, peak := time.Since(t1), cpuTime()-c0, mem.peakMB()
	if err != nil {
		return nil, err
	}
	it.wall, it.cpu, it.peakMB = wall, cpu, peak
	fmt.Fprintf(os.Stderr, "perfbench: iteration traced=%v setup %.4fs wall %.3fs cpu %.3fs peak %.1fMB results %d failed %d\n",
		traced, setupDur.Seconds(), wall.Seconds(), cpu.Seconds(), peak, it.results, it.failed)
	return it, nil
}

// tally counts the iterations' operations and failures, adding one
// failure for every output that differs from the first iteration's:
// the same inputs must give byte-identical results every time.
func tally(its []*iteration) (attempted, failed int) {
	for _, it := range its {
		attempted += it.attempted
		failed += it.failed
	}
	for _, it := range its[1:] {
		failed += diffOutputs(its[0].outputs, it.outputs)
	}
	return attempted, failed
}

// diffOutputs counts positions where two output lists differ.
func diffOutputs(a, b [][]byte) int {
	n := 0
	if len(a) != len(b) {
		n = abs(len(a) - len(b))
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		if string(a[i]) != string(b[i]) {
			n++
		}
	}
	return n
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// iqm is the interquartile mean: the mean of v without its lowest and
// highest quarter. Like a median it ignores outlying iterations, but it
// moves smoothly when iteration times are bimodal — as the fleet's are,
// its coordinator noticing finished points only at 250 ms status polls —
// where a median jumps between the modes.
func iqm(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := len(s) / 4
	return mean(s[k : len(s)-k])
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var t float64
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}
