package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bump/internal/service"
	"bump/internal/sim"
	"bump/internal/wire"
)

// testWorker is one in-process bumpd: a real warm-started pool behind a
// real HTTP server, optionally with a binary wire listener.
type testWorker struct {
	pool *service.Pool
	srv  *httptest.Server
	wire *wire.Server // nil unless built by newWireFleet
}

func newTestFleet(t *testing.T, n int, opts service.Options) []*testWorker {
	t.Helper()
	if opts.ProgressInterval == 0 {
		opts.ProgressInterval = 5_000
	}
	fleet := make([]*testWorker, n)
	for i := range fleet {
		p := service.NewPool(opts)
		srv := httptest.NewServer(service.NewHandler(p))
		t.Cleanup(func() {
			srv.Close()
			p.Close()
		})
		fleet[i] = &testWorker{pool: p, srv: srv}
	}
	return fleet
}

// newWireFleet builds workers that also serve the binary wire protocol
// and advertise its address in /v1/healthz, so coordinator worker
// clients negotiate onto it. Kept separate from newTestFleet: the chaos
// tests proxy worker HTTP traffic and must not be silently bypassed by
// a negotiated side channel.
func newWireFleet(t *testing.T, n int, opts service.Options) []*testWorker {
	t.Helper()
	if opts.ProgressInterval == 0 {
		opts.ProgressInterval = 5_000
	}
	fleet := make([]*testWorker, n)
	for i := range fleet {
		p := service.NewPool(opts)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ws := wire.Serve(l, service.NewWireHandler(service.NewPoolWireBackend(p)))
		srv := httptest.NewServer(service.NewHandlerInfo(p, service.ServerInfo{WireAddr: l.Addr().String()}))
		t.Cleanup(func() {
			srv.Close()
			ws.Close()
			p.Close()
		})
		fleet[i] = &testWorker{pool: p, srv: srv, wire: ws}
	}
	return fleet
}

func newTestCoordinator(t *testing.T, fleet []*testWorker) *Coordinator {
	t.Helper()
	urls := make([]string, len(fleet))
	for i, w := range fleet {
		urls[i] = w.srv.URL
	}
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
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if up := coord.Registry().UpCount(); up != len(fleet) {
		t.Fatalf("%d/%d workers up after initial probe", up, len(fleet))
	}
	return coord
}

// sweepSpec is one warmed measured-parameter sweep point.
func sweepSpec(workload string, streak int) service.JobSpec {
	return service.JobSpec{
		Workload:        workload,
		Mechanism:       "bump",
		WarmupCycles:    20_000,
		MeasureCycles:   50_000,
		MaxRowHitStreak: streak,
	}
}

// resultJSON canonicalizes a result for byte-identity comparison.
func resultJSON(t *testing.T, r sim.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// singleNodeReference runs the same batch on one warm-started local
// pool — the baseline the cluster must match byte for byte.
func singleNodeReference(t *testing.T, specs []service.JobSpec) []string {
	t.Helper()
	p := service.NewPool(service.Options{Workers: 2, WarmStarts: true, ProgressInterval: 5_000})
	defer p.Close()
	res, err := service.RunBatch(context.Background(), p, service.BatchSpec{Specs: specs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]string, len(res.Points))
	for i, pt := range res.Points {
		if pt.Status.State != service.StateDone || pt.Status.Result == nil {
			t.Fatalf("reference point %d: %s (%s)", i, pt.Status.State, pt.Status.Error)
		}
		ref[i] = resultJSON(t, *pt.Status.Result)
	}
	return ref
}

// TestClusterE2EWarmAffinitySweep is the tentpole acceptance test: a
// warmed measured-parameter sweep dispatched through the coordinator to
// three warm-started workers must
//
//   - pin every point of a structural config group to one worker
//     (consistent-hash affinity on the warm key),
//   - simulate exactly one warmup per distinct structural config
//     fleet-wide (the affinity is what makes the WarmStore pay off),
//   - produce results byte-identical to the single-node path, and
//   - serve a second identical sweep entirely from worker result caches
//     (zero additional executions).
func TestClusterE2EWarmAffinitySweep(t *testing.T) {
	fleet := newTestFleet(t, 3, service.Options{Workers: 2, WarmStarts: true})
	coord := newTestCoordinator(t, fleet)

	// Two structural config groups (distinct workloads) × 8 measured-
	// parameter points (row-hit streak caps) each.
	groups := []string{"web-search", "media-streaming"}
	const perGroup = 8
	var specs []service.JobSpec
	for _, wl := range groups {
		for streak := 0; streak < perGroup; streak++ {
			specs = append(specs, sweepSpec(wl, streak))
		}
	}
	const warmupCycles = 20_000

	res, err := coord.Batch(context.Background(), service.BatchSpec{Specs: specs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d failed points: %+v", res.Failed, res.Points)
	}

	// Warm-affinity: every point of a group landed on the same worker.
	for g, wl := range groups {
		workers := map[string]bool{}
		for i := g * perGroup; i < (g+1)*perGroup; i++ {
			workers[res.Points[i].Worker] = true
		}
		if len(workers) != 1 {
			t.Errorf("group %q spread across workers %v, want exactly one (warm affinity)", wl, workers)
		}
	}

	// Exactly one warmup per structural config group, fleet-wide.
	var misses, simulated uint64
	for _, w := range fleet {
		st := w.pool.Stats()
		misses += st.Warm.Misses
		simulated += st.Warm.WarmupCyclesSimulated
	}
	if misses != uint64(len(groups)) {
		t.Errorf("fleet simulated %d warmups, want exactly %d (one per structural config)", misses, len(groups))
	}
	if simulated != uint64(len(groups))*warmupCycles {
		t.Errorf("fleet simulated %d warmup cycles, want %d", simulated, len(groups)*warmupCycles)
	}

	// Byte-identical to the single-node warmed path.
	ref := singleNodeReference(t, specs)
	for i, pt := range res.Points {
		if got := resultJSON(t, *pt.Status.Result); got != ref[i] {
			t.Errorf("point %d (%s on %s): cluster result diverges from single-node", i, specs[i].Workload, pt.Worker)
		}
	}

	// Second pass: pure cache hits, zero new executions, same bytes.
	execsBefore := make([]uint64, len(fleet))
	for i, w := range fleet {
		execsBefore[i] = w.pool.Stats().Executions
	}
	res2, err := coord.Batch(context.Background(), service.BatchSpec{Specs: specs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Failed != 0 {
		t.Fatalf("second pass: %d failed points", res2.Failed)
	}
	for i, w := range fleet {
		if got := w.pool.Stats().Executions; got != execsBefore[i] {
			t.Errorf("worker %d executed %d new jobs on the second pass, want 0 (result cache)", i, got-execsBefore[i])
		}
	}
	for i, pt := range res2.Points {
		if !pt.Status.Cached {
			t.Errorf("second-pass point %d not served from cache", i)
		}
		if got := resultJSON(t, *pt.Status.Result); got != ref[i] {
			t.Errorf("second-pass point %d diverges from first pass", i)
		}
	}
}

// TestClusterE2EFailoverMidSweep kills the affinity worker while its
// sweep is in flight: the coordinator must strike it out, fail the
// in-flight points over to the next worker on the ring, and still
// deliver a complete, byte-identical sweep.
func TestClusterE2EFailoverMidSweep(t *testing.T) {
	fleet := newTestFleet(t, 3, service.Options{Workers: 1, WarmStarts: true})
	coord := newTestCoordinator(t, fleet)

	const points = 16
	specs := make([]service.JobSpec, points)
	for i := range specs {
		specs[i] = sweepSpec("web-search", i)
		specs[i].WarmupCycles = 50_000
		specs[i].MeasureCycles = 500_000
	}

	// Find the worker the sweep pins to.
	key, warm, err := RouteKey(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("sweep spec must be warm-cacheable")
	}
	ownerURL := coord.Registry().Ring().Owner(key) // the ring is keyed by worker URL
	var owner *testWorker
	var ownerID string
	for i, w := range fleet {
		if w.srv.URL == ownerURL {
			owner = w
			ownerID = fmt.Sprintf("w%d", i)
		}
	}
	if owner == nil {
		t.Fatalf("owner %q not found", ownerURL)
	}

	done := make(chan struct{})
	var res service.BatchResult
	go func() {
		defer close(done)
		res, err = coord.Batch(context.Background(), service.BatchSpec{Specs: specs}, nil)
	}()

	// Wait until the owner has completed at least one point, then kill
	// it mid-sweep.
	killDeadline := time.After(30 * time.Second)
	for owner.pool.Stats().Completed == 0 {
		select {
		case <-killDeadline:
			t.Fatal("owner never started completing points")
		case <-done:
			t.Fatal("sweep finished before the worker could be killed — enlarge the specs")
		case <-time.After(time.Millisecond):
		}
	}

	// The owner's completed warmup published a checkpoint it now
	// advertises in healthz. Drive probe + replication rounds until a
	// peer holds a copy, so the failover placement restores the warmup
	// instead of re-simulating it.
	repDeadline := time.After(10 * time.Second)
	for len(coord.Registry().HoldersOf(key, ownerID)) == 0 {
		coord.Registry().ProbeOnce(context.Background())
		coord.ReplicateOnce(context.Background())
		select {
		case <-repDeadline:
			t.Fatal("checkpoint never replicated off the owner")
		case <-done:
			t.Fatal("sweep finished before replication — enlarge the specs")
		case <-time.After(5 * time.Millisecond):
		}
	}

	owner.srv.CloseClientConnections()
	owner.srv.Close()

	<-done
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d failed points after failover: %+v", res.Failed, res.Points)
	}
	failedOver := 0
	for _, pt := range res.Points {
		if pt.Worker != ownerID {
			failedOver++
		}
	}
	if failedOver == 0 {
		t.Error("no point failed over off the killed worker")
	}

	// The dead worker is ejected from the topology.
	deadline := time.After(5 * time.Second)
	for coord.Registry().Up(ownerID) {
		select {
		case <-deadline:
			t.Fatal("killed worker still admitted")
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Checkpoint transfer made the failover warm: the surviving workers
	// restored the replicated checkpoint instead of re-simulating the
	// warmup — zero warmup cycles simulated anywhere but the owner.
	var installed uint64
	for i, w := range fleet {
		if w == owner {
			continue
		}
		st := w.pool.Stats()
		if st.Warm.WarmupCyclesSimulated != 0 {
			t.Errorf("worker %d re-simulated %d warmup cycles despite a transferred checkpoint", i, st.Warm.WarmupCyclesSimulated)
		}
		installed += st.Warm.Installed
	}
	if installed == 0 {
		t.Error("no worker installed a transferred checkpoint")
	}

	// Results are still byte-identical to the single-node path.
	ref := singleNodeReference(t, specs)
	for i, pt := range res.Points {
		if got := resultJSON(t, *pt.Status.Result); got != ref[i] {
			t.Errorf("point %d (on %s): failover sweep diverges from single-node", i, pt.Worker)
		}
	}
}

// TestClusterWireProtocol pins that a stock service.Client — written
// for a single bumpd — works against the coordinator unchanged: submit,
// poll, SSE events, result-by-hash, health.
func TestClusterWireProtocol(t *testing.T) {
	fleet := newTestFleet(t, 3, service.Options{Workers: 2, WarmStarts: true})
	coord := newTestCoordinator(t, fleet)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	client := service.NewClient(front.URL)

	spec := sweepSpec("web-search", 0)
	spec.MeasureCycles = 5_000_000 // long enough for a live SSE stream
	st, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, workerID, err := SplitJobID(st.ID); err != nil || !coord.Registry().Up(workerID) {
		t.Fatalf("job ID %q must name an admitted worker (err %v)", st.ID, err)
	}

	// SSE through the proxy: progress events, then a terminal event
	// whose payload carries the namespaced ID.
	var progress int
	var terminal service.JobPayload
	err = client.Events(context.Background(), st.ID, func(ev service.Event) error {
		switch {
		case ev.Name == "progress":
			progress++
		case ev.Terminal():
			if err := json.Unmarshal(ev.Data, &terminal); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if progress == 0 {
		t.Error("no progress events proxied")
	}
	if terminal.ID != st.ID || terminal.State != service.StateDone {
		t.Fatalf("terminal event %+v, want done for %s", terminal.JobStatus, st.ID)
	}
	if terminal.Metrics == nil {
		t.Error("terminal payload missing derived metrics")
	}

	// Poll and result-by-hash (fleet-wide lookup).
	fin, err := client.Wait(context.Background(), st.ID)
	if err != nil || fin.State != service.StateDone {
		t.Fatalf("wait: %v %s", err, fin.State)
	}
	res, ok, err := client.ResultByHash(context.Background(), fin.Hash)
	if err != nil || !ok {
		t.Fatalf("ResultByHash: ok=%v err=%v", ok, err)
	}
	if resultJSON(t, res) != resultJSON(t, *fin.Result) {
		t.Error("hash lookup returned a different result")
	}

	// Aggregated health speaks the worker schema.
	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Stats.Executions == 0 || h.Version == 0 {
		t.Errorf("aggregated health: %+v", h)
	}

	// Cancel via the proxy.
	long := sweepSpec("data-serving", 0)
	long.MeasureCycles = 200_000_000
	lst, err := client.Submit(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	if cst, err := client.Cancel(context.Background(), lst.ID); err != nil || cst.State == service.StateDone {
		t.Fatalf("cancel: %+v %v", cst, err)
	}
	fin, err = client.Wait(context.Background(), lst.ID)
	if err != nil || fin.State != service.StateCanceled {
		t.Fatalf("canceled job: %v %s", err, fin.State)
	}
}

// TestClusterBatchHTTP drives POST /v1/batch over HTTP in both content
// negotiations: SSE per-point streaming and plain JSON aggregate.
func TestClusterBatchHTTP(t *testing.T) {
	fleet := newTestFleet(t, 2, service.Options{Workers: 2, WarmStarts: true})
	coord := newTestCoordinator(t, fleet)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	client := service.NewClient(front.URL)

	specs := make([]service.JobSpec, 6)
	for i := range specs {
		specs[i] = sweepSpec("web-search", i)
	}

	// SSE path via the client.
	var pointEvents int
	res, err := client.Batch(context.Background(), service.BatchSpec{Specs: specs}, func(pt service.BatchPoint) {
		pointEvents++
	})
	if err != nil {
		t.Fatal(err)
	}
	if pointEvents != len(specs) {
		t.Errorf("%d point events, want %d", pointEvents, len(specs))
	}
	if len(res.Points) != len(specs) || res.Failed != 0 {
		t.Fatalf("batch aggregate: %d points, %d failed", len(res.Points), res.Failed)
	}
	for i, pt := range res.Points {
		if pt.Index != i || pt.Status.Result == nil || pt.Worker == "" {
			t.Fatalf("point %d out of order or incomplete: %+v", i, pt)
		}
		if pt.Status.Spec.MaxRowHitStreak != specs[i].MaxRowHitStreak {
			t.Errorf("point %d carries spec for streak %d, want %d", i, pt.Status.Spec.MaxRowHitStreak, specs[i].MaxRowHitStreak)
		}
	}

	// Plain JSON path.
	body, _ := json.Marshal(service.BatchSpec{Specs: specs})
	resp, err := http.Post(front.URL+"/v1/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var agg service.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(agg.Points) != len(specs) || agg.Failed != 0 {
		t.Fatalf("JSON batch: status %d, %d points, %d failed", resp.StatusCode, len(agg.Points), agg.Failed)
	}

	// Topology endpoint.
	tr, err := http.Get(front.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var top ClusterPayload
	if err := json.NewDecoder(tr.Body).Decode(&top); err != nil {
		t.Fatal(err)
	}
	if top.Status != "ok" || top.Up != 2 || top.Total != 2 || len(top.Workers) != 2 {
		t.Fatalf("topology: %+v", top)
	}
	var execs uint64
	for _, w := range top.Workers {
		execs += w.Stats.Executions
	}
	if execs == 0 {
		t.Error("topology carries no per-worker execution stats")
	}
}

// TestClusterE2ECrossProtocolSweep runs the same sweep through the
// coordinator over both protocols — HTTP/JSON (wire disabled) and the
// negotiated binary wire path — and requires the results to be
// byte-identical to each other and to the single-node reference. The
// coordinator's own worker hops must negotiate onto wire too.
func TestClusterE2ECrossProtocolSweep(t *testing.T) {
	fleet := newWireFleet(t, 3, service.Options{Workers: 2, WarmStarts: true})
	coord := newTestCoordinator(t, fleet)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireSrv := wire.Serve(l, service.NewWireHandler(coord))
	t.Cleanup(wireSrv.Close)
	coord.SetWireAddr(l.Addr().String())

	groups := []string{"web-search", "media-streaming"}
	const perGroup = 4
	var specs []service.JobSpec
	for _, wl := range groups {
		for streak := 0; streak < perGroup; streak++ {
			specs = append(specs, sweepSpec(wl, streak))
		}
	}

	jsonClient := service.NewClient(front.URL)
	jsonClient.DisableWire = true
	wireClient := service.NewClient(front.URL)
	t.Cleanup(func() { jsonClient.Close(); wireClient.Close() })

	jres, err := jsonClient.Batch(context.Background(), service.BatchSpec{Specs: specs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wres, err := wireClient.Batch(context.Background(), service.BatchSpec{Specs: specs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if jres.Failed != 0 || wres.Failed != 0 {
		t.Fatalf("failed points: json=%d wire=%d", jres.Failed, wres.Failed)
	}
	if ws := wireClient.WireStats(); ws.Calls == 0 {
		t.Fatalf("wire client never used the binary path: %+v", ws)
	}
	if js := jsonClient.WireStats(); js.Calls != 0 {
		t.Fatalf("DisableWire client made %d wire calls", js.Calls)
	}

	// Coordinator→worker hops negotiated onto wire (workers advertise it
	// in healthz, DisableWire was not set on the registry).
	var workerWire uint64
	for _, wk := range coord.Registry().Workers() {
		workerWire += wk.Client.WireStats().Calls
	}
	if workerWire == 0 {
		t.Error("coordinator worker clients never negotiated onto the wire path")
	}

	// Byte-identity: wire == JSON == single-node, point for point.
	ref := singleNodeReference(t, specs)
	for i := range specs {
		j := resultJSON(t, *jres.Points[i].Status.Result)
		w := resultJSON(t, *wres.Points[i].Status.Result)
		if j != ref[i] {
			t.Errorf("point %d: JSON path diverges from single-node", i)
		}
		if w != j {
			t.Errorf("point %d: wire path diverges from JSON path", i)
		}
	}

	// Single-job round trip over wire: submit, poll, result-by-hash all
	// match the JSON view of the same job.
	st, err := wireClient.Submit(context.Background(), sweepSpec("web-search", 0))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := wireClient.Wait(context.Background(), st.ID)
	if err != nil || fin.State != service.StateDone {
		t.Fatalf("wire wait: %v %s", err, fin.State)
	}
	jfin, err := jsonClient.Job(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, *fin.Result) != resultJSON(t, *jfin.Result) {
		t.Error("wire and JSON views of one job disagree")
	}
	res, ok, err := wireClient.ResultByHash(context.Background(), fin.Hash)
	if err != nil || !ok {
		t.Fatalf("wire ResultByHash: ok=%v err=%v", ok, err)
	}
	if resultJSON(t, res) != resultJSON(t, *fin.Result) {
		t.Error("wire hash lookup returned a different result")
	}
}
