package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile mirrors the metric lists of the repository's
// BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a tenth of its size, untraced and
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// names, with their units, and that no operation failed.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	e2e := make(map[string]string)
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := make(map[string]string)
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layer
			}
			rep, err := run(options{
				workload: w.Name,
				seed:     1,
				seconds:  0.001, // one iteration (traced: one of each kind)
				trace:    traced,
				scale:    0.1,
				workDir:  t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.Name, traced, err)
			}
			if rep.Attempted == 0 || rep.Failed != 0 || !rep.Correct {
				t.Errorf("%s (traced=%v): attempted %d, failed %d, correct %v",
					w.Name, traced, rep.Attempted, rep.Failed, rep.Correct)
			}
			for name, unit := range want {
				m, ok := rep.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s (traced=%v): metric %s missing", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s (traced=%v): metric %s unit %q, want %q", w.Name, traced, name, m.Unit, unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
			for name := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s (traced=%v): unnamed metric %s", w.Name, traced, name)
				}
			}
			if traced && rep.Metrics["error_rate"].Value != 0 {
				t.Errorf("%s: error_rate = %v", w.Name, rep.Metrics["error_rate"].Value)
			}
		}
	}
}
