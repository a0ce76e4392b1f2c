package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/pprof"
	"time"

	"bump/internal/obs"
	"bump/internal/sim"
	"bump/internal/workload"
)

// traceRun collects a traced run's per-layer values.
type traceRun struct {
	v     map[string]float64
	seed  int64
	scale float64
	// traced are the traced iterations (tracers on, CPU profile running).
	traced []*iteration
}

// runTraced alternates untraced and traced iterations for the run's
// time, then measures the layers. The traced iterations run with the
// CPU profiler and the pools' and coordinator's span tracers on; their
// outputs must equal the untraced ones byte for byte.
func runTraced(w benchWorkload, o options) (*report, error) {
	tr := &traceRun{v: make(map[string]float64), seed: o.seed, scale: o.scale}
	var plain []*iteration
	prof := &cpuProfile{}
	start := time.Now()
	for len(tr.traced) == 0 || time.Since(start).Seconds() < o.seconds {
		it, err := iterate(w, false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, it)

		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		it, err = iterate(w, true)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		p, err := parseProfile(buf.Bytes())
		if err != nil {
			return nil, fmt.Errorf("read CPU profile: %w", err)
		}
		prof.stacks = append(prof.stacks, p.stacks...)
		prof.values = append(prof.values, p.values...)
		tr.traced = append(tr.traced, it)
	}

	all := append(append([]*iteration(nil), plain...), tr.traced...)
	attempted, failed := tally(all)
	for _, it := range tr.traced {
		attempted++
		if it.counts != plain[0].counts {
			failed++
		}
	}
	a, f := w.check(all)
	attempted, failed = attempted+a, failed+f

	if err := w.layers(tr); err != nil {
		return nil, err
	}
	prof.shares(tr.v)
	last := tr.traced[len(tr.traced)-1]
	last.counts.metrics(tr.v)
	for k, x := range last.extra {
		tr.v[k] = x
	}
	var pw, tw []float64
	for i := range plain {
		pw = append(pw, plain[i].wall.Seconds())
		tw = append(tw, tr.traced[i].wall.Seconds())
	}
	tr.v["trace.overhead_frac"] = iqm(tw)/iqm(pw) - 1
	tr.v["error_rate"] = float64(failed) / float64(attempted)

	m, err := render(perLayer, tr.v)
	if err != nil {
		return nil, err
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// replayAccesses is the per-preset stream length of the layer replay.
const replayAccesses = 60_000

// common measures what every workload reports the same way: the
// simulator phases (and the BuMP predictor's BHT hit ratio) of fresh runs
// of a sample of its configurations, and the layer replay over its
// presets.
func (tr *traceRun) common(cfgs []sim.Config, presets []workload.Params) error {
	var newT, bhtHits, bhtLookups float64
	phases := make(map[string]float64)
	for _, cfg := range cfgs {
		t0 := time.Now()
		s, err := sim.New(cfg)
		if err != nil {
			return err
		}
		newT += time.Since(t0).Seconds()
		if _, err := s.RunWithHooks(sim.Hooks{Phase: func(name string, start, end time.Time) {
			phases[name] += end.Sub(start).Seconds()
		}}); err != nil {
			return err
		}
		if p := s.Predictor(); p != nil {
			st := p.Stats()
			bhtHits += float64(st.BHTHits)
			bhtLookups += float64(st.BHTHits + st.BHTMisses)
		}
	}
	n := float64(len(cfgs))
	tr.v["sim.new_s"] = newT / n
	tr.v["sim.warmup_s"] = phases["warmup"] / n
	tr.v["sim.measure_s"] = phases["measure"] / n
	tr.v["sim.encode_s"] = phases["encode"] / n
	if bhtLookups > 0 {
		tr.v["core.bht_hit_ratio"] = bhtHits / bhtLookups
	}
	return layerReplay(presets, tr.seed, max(1000, int(replayAccesses*tr.scale)), tr.v)
}

// errCut stops a run once its checkpoint is taken.
var errCut = errors.New("checkpoint taken")

// snapshotCost times System.Snapshot of cfg's canonical trunk at cut and
// System.Restore of the bytes into a fresh system (median of a few).
func (tr *traceRun) snapshotCost(cfg sim.Config, cut uint64) error {
	trunk := cfg
	trunk.ForkAt, trunk.ForkCycles, trunk.MaxRowHitStreak = 0, nil, 0
	s, err := sim.New(trunk)
	if err != nil {
		return err
	}
	var data []byte
	var enc, dec []float64
	_, err = s.RunWithHooks(sim.Hooks{
		AtCycles: []uint64{cut},
		AtCycle: func(uint64) error {
			for i := 0; i < 3; i++ {
				var buf bytes.Buffer
				t0 := time.Now()
				if err := s.Snapshot(&buf); err != nil {
					return err
				}
				enc = append(enc, time.Since(t0).Seconds())
				data = buf.Bytes()
			}
			return errCut
		},
	})
	if !errors.Is(err, errCut) {
		return fmt.Errorf("snapshot at cycle %d: %v", cut, err)
	}
	for i := 0; i < 3; i++ {
		r, err := sim.New(cfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := r.Restore(bytes.NewReader(data)); err != nil {
			return err
		}
		dec = append(dec, time.Since(t0).Seconds())
	}
	tr.v["snapshot.encode_s"] = median(enc)
	tr.v["snapshot.restore_s"] = median(dec)
	tr.v["snapshot.bytes"] = float64(len(data))
	return nil
}

// spanTotals sums a tracer's span durations by name (seconds) over the
// pool-local job IDs j00000001, j00000002, ... up to the first unknown
// one, and returns each job's span end times by name and config hash.
func spanTotals(t *obs.Tracer) (totals map[string]float64, ends map[string]map[string]float64) {
	totals = make(map[string]float64)
	ends = make(map[string]map[string]float64)
	for i := 1; ; i++ {
		exp, ok := t.Export(fmt.Sprintf("j%08d", i), 1, "bumpd")
		if !ok {
			return totals, ends
		}
		for _, ev := range exp.TraceEvents {
			if ev.Phase != "X" {
				continue
			}
			totals[ev.Name] += ev.Dur / 1e6
			if h, ok := ev.Args["hash"].(string); ok {
				if ends[ev.Name] == nil {
					ends[ev.Name] = make(map[string]float64)
				}
				ends[ev.Name][h] = (ev.Ts + ev.Dur) / 1e6
			}
		}
	}
}
