package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"bump/internal/obs"
	"bump/internal/service"
)

// newObsFleet builds workers with metrics registries and tracers wired
// through both the pool and the HTTP handler, so /metrics and
// /v1/jobs/{id}/trace are live on every worker.
func newObsFleet(t *testing.T, n int) []*testWorker {
	t.Helper()
	fleet := make([]*testWorker, n)
	for i := range fleet {
		metrics := obs.NewRegistry()
		tracer := obs.NewTracer(0)
		p := service.NewPool(service.Options{
			Workers:          2,
			WarmStarts:       true,
			ProgressInterval: 5_000,
			Metrics:          metrics,
			Tracer:           tracer,
		})
		srv := httptest.NewServer(service.NewHandlerInfo(p, service.ServerInfo{
			Metrics: metrics,
			Tracer:  tracer,
		}))
		t.Cleanup(func() {
			srv.Close()
			p.Close()
		})
		fleet[i] = &testWorker{pool: p, srv: srv}
	}
	return fleet
}

// scrape GETs a /metrics endpoint and parses the exposition into
// series -> value (one entry per unique name+labels line).
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape %s: content type %q", url, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("scrape %s: malformed line %q", url, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("scrape %s: bad value in %q: %v", url, line, err)
		}
		series[line[:sp]] = v
	}
	return series
}

// assertMonotone checks that every cumulative series (counters and
// histogram _count/_sum) present in two ordered scrapes never decreased.
func assertMonotone(t *testing.T, earlier, later map[string]float64, label string) {
	t.Helper()
	cumulative := func(name string) bool {
		base := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base = name[:i]
		}
		return strings.HasSuffix(base, "_total") ||
			strings.HasSuffix(base, "_count") || strings.HasSuffix(base, "_sum")
	}
	for name, was := range earlier {
		if !cumulative(name) {
			continue
		}
		now, ok := later[name]
		if !ok {
			t.Errorf("%s: series %s disappeared between scrapes", label, name)
			continue
		}
		if now < was {
			t.Errorf("%s: series %s went backwards: %v -> %v", label, name, was, now)
		}
	}
}

// TestClusterE2EMetricsAndTrace drives a warmed sweep through a
// coordinator with the full observability surface enabled, scraping
// /metrics on a worker and the coordinator mid-sweep and after it
// (asserting the key series exist and every counter is monotone), then
// submits one tracked job and checks the stitched trace: coordinator
// routing spans and worker execution spans under one trace ID.
func TestClusterE2EMetricsAndTrace(t *testing.T) {
	fleet := newObsFleet(t, 2)
	urls := make([]string, len(fleet))
	for i, w := range fleet {
		urls[i] = w.srv.URL
	}
	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	coord, err := New(context.Background(), Options{
		Workers: urls,
		Registry: RegistryOptions{
			ProbeInterval:  50 * time.Millisecond,
			ProbeTimeout:   5 * time.Second,
			FailAfter:      2,
			BackoffBase:    50 * time.Millisecond,
			BackoffMax:     200 * time.Millisecond,
			RequestTimeout: 5 * time.Second,
		},
		Metrics: metrics,
		Tracer:  tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)

	workerURL := fleet[0].srv.URL
	preWorker := scrape(t, workerURL)
	preCoord := scrape(t, front.URL)

	var specs []service.JobSpec
	for streak := 0; streak < 4; streak++ {
		specs = append(specs, sweepSpec("web-search", streak))
	}
	done := make(chan error, 1)
	go func() {
		res, err := coord.Batch(context.Background(), service.BatchSpec{Specs: specs}, nil)
		if err == nil && res.Failed != 0 {
			err = fmt.Errorf("%d failed points", res.Failed)
		}
		done <- err
	}()

	// Mid-sweep scrapes: both endpoints must stay serveable and monotone
	// while jobs are in flight.
	midWorker, midCoord := preWorker, preCoord
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		case <-time.After(20 * time.Millisecond):
			w := scrape(t, workerURL)
			c := scrape(t, front.URL)
			assertMonotone(t, midWorker, w, "worker mid-sweep")
			assertMonotone(t, midCoord, c, "coordinator mid-sweep")
			midWorker, midCoord = w, c
		}
	}
	postWorker := scrape(t, workerURL)
	postCoord := scrape(t, front.URL)
	assertMonotone(t, midWorker, postWorker, "worker final")
	assertMonotone(t, midCoord, postCoord, "coordinator final")

	// The sweep landed on one of the two workers; the fleet-wide sums
	// must show the executions and phase timings.
	otherWorker := scrape(t, fleet[1].srv.URL)
	sum := func(series string) float64 { return postWorker[series] + otherWorker[series] }
	if got := sum("bump_pool_executions_total"); got < float64(len(specs)) {
		t.Errorf("fleet bump_pool_executions_total = %v, want >= %d", got, len(specs))
	}
	if got := sum(`bump_sim_phase_seconds_count{phase="measure"}`); got < float64(len(specs)) {
		t.Errorf(`fleet bump_sim_phase_seconds_count{phase="measure"} = %v, want >= %d`, got, len(specs))
	}
	for _, series := range []string{
		"bump_pool_workers", "bump_cache_entries", "bump_warm_hits_total",
		`bump_warm_cycles_simulated_total{kind="warmup"}`,
		"bump_parallel_tokens", "bump_conns_requests_total",
	} {
		if _, ok := postWorker[series]; !ok {
			t.Errorf("worker /metrics missing %s", series)
		}
	}
	if got := postCoord["bump_cluster_workers_up"]; got != 2 {
		t.Errorf("bump_cluster_workers_up = %v, want 2", got)
	}
	for _, series := range []string{
		"bump_wal_durable", `bump_cluster_jobs{state="done"}`,
		"bump_cluster_inflight", "bump_wire_calls_total",
	} {
		if _, ok := postCoord[series]; !ok {
			t.Errorf("coordinator /metrics missing %s", series)
		}
	}

	// One tracked solo job, submitted over HTTP, then its stitched trace.
	body, err := json.Marshal(sweepSpec("media-streaming", 3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var payload service.JobPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(front.URL + "/v1/jobs/" + payload.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st service.JobPayload
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			if st.State != service.StateDone {
				t.Fatalf("job %s: %s (%s)", payload.ID, st.State, st.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", payload.ID, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The await span lands when the driver observes the terminal state,
	// which may trail our poll by a beat.
	var exp *obs.TraceExport
	names := map[string]int{}
	for time.Now().Before(deadline) {
		r, err := http.Get(front.URL + "/v1/jobs/" + payload.ID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if exp, err = obs.ParseExport(data); err != nil {
			t.Fatalf("trace parse: %v", err)
		}
		names = map[string]int{}
		for _, ev := range exp.TraceEvents {
			if ev.Phase != "M" {
				names[ev.Name] = ev.Pid
			}
		}
		if _, ok := names["await"]; ok {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	traceID, _ := exp.Metadata["trace_id"].(string)
	if traceID == "" {
		t.Fatal("trace export carries no trace_id metadata")
	}
	for _, ev := range exp.TraceEvents {
		if ev.Phase == "M" {
			continue
		}
		if got, _ := ev.Args["trace_id"].(string); got != traceID {
			t.Errorf("event %q carries trace_id %q, want %q", ev.Name, got, traceID)
		}
	}
	for _, want := range []struct {
		name string
		pid  int
	}{
		{"route", 1}, {"await", 1}, // coordinator timeline
		{"queue", 2}, {"execute", 2}, {"warmup", 2}, {"measure", 2}, // worker timeline
	} {
		if pid, ok := names[want.name]; !ok {
			t.Errorf("stitched trace missing span %q (have %v)", want.name, names)
		} else if pid != want.pid {
			t.Errorf("span %q on pid %d, want %d", want.name, pid, want.pid)
		}
	}
}
