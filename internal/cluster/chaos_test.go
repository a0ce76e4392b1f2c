package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bump/internal/chaos"
	"bump/internal/chaos/faultserver"
	"bump/internal/service"
	"bump/internal/snapshot"
)

// fastRegistry is the probe tuning shared by the chaos tests: quick
// rounds, two strikes, short backoff.
func fastRegistry() RegistryOptions {
	return RegistryOptions{
		ProbeInterval:  50 * time.Millisecond,
		ProbeTimeout:   5 * time.Second,
		FailAfter:      2,
		BackoffBase:    50 * time.Millisecond,
		BackoffMax:     200 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
	}
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.After(timeout)
	for !cond() {
		select {
		case <-deadline:
			t.Fatal(msg)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestChaosCoordinatorCrashRestartMidSweep is the durability acceptance
// test: a coordinator is killed mid-sweep and restarted on the same data
// directory. The restarted coordinator must answer every pre-crash job
// ID, pick the in-flight work back up, and deliver a final aggregate
// byte-identical to the single-node path.
func TestChaosCoordinatorCrashRestartMidSweep(t *testing.T) {
	fleet := newTestFleet(t, 3, service.Options{Workers: 1, WarmStarts: true})
	urls := make([]string, len(fleet))
	for i, w := range fleet {
		urls[i] = w.srv.URL
	}
	dir := t.TempDir()
	mk := func() *Coordinator {
		coord, err := New(context.Background(), Options{Workers: urls, DataDir: dir, Registry: fastRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		return coord
	}

	c1 := mk()
	c1Closed := false
	closeC1 := func() {
		if !c1Closed {
			c1Closed = true
			c1.Close()
		}
	}
	defer closeC1()
	front1 := httptest.NewServer(c1.Handler())
	defer front1.Close()
	client1 := service.NewClient(front1.URL)

	// A solo job big enough to still be running when the coordinator
	// dies: its ID must survive the crash too.
	solo := sweepSpec("data-serving", 0)
	solo.WarmupCycles = 50_000
	solo.MeasureCycles = 5_000_000
	soloSt, err := client1.Submit(context.Background(), solo)
	if err != nil {
		t.Fatal(err)
	}

	const points = 16
	specs := make([]service.JobSpec, points)
	for i := range specs {
		specs[i] = sweepSpec("web-search", i)
		specs[i].WarmupCycles = 50_000
		specs[i].MeasureCycles = 500_000
	}
	batchID, err := c1.StartBatch(service.BatchSpec{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}

	// Kill once the sweep is genuinely mid-flight: some points terminal,
	// the rest placed or running.
	terminalPoints := func() int {
		n := 0
		for _, j := range c1.Store().Jobs() {
			if j.Batch == batchID && j.State.Terminal() {
				n++
			}
		}
		return n
	}
	waitUntil(t, 30*time.Second, func() bool { return terminalPoints() >= 2 },
		"sweep never got going before the kill deadline")
	if terminalPoints() == points {
		t.Fatal("sweep finished before the coordinator could be killed — enlarge the specs")
	}
	var preIDs []string
	for _, j := range c1.Store().Jobs() {
		preIDs = append(preIDs, j.ID)
	}
	closeC1() // crash-equivalent: no final checkpoint, drivers die mid-flight
	front1.Close()

	c2 := mk()
	t.Cleanup(c2.Close)
	front2 := httptest.NewServer(c2.Handler())
	t.Cleanup(front2.Close)
	client2 := service.NewClient(front2.URL)

	// The replay is visible in /v1/healthz durability stats.
	h := c2.Health()
	if h.WAL == nil || !h.WAL.Durable {
		t.Fatal("restarted coordinator reports no WAL")
	}
	if h.WAL.ReplayedRecords == 0 || h.WAL.ReplayedJobs == 0 {
		t.Fatalf("restarted coordinator replayed nothing: %+v", h.WAL)
	}
	if h.WAL.RecoveredJobs == 0 {
		t.Fatalf("no in-flight jobs recovered despite a mid-sweep crash: %+v", h.WAL)
	}

	// Every pre-crash job ID is still answerable.
	for _, id := range preIDs {
		if _, err := client2.Job(context.Background(), id); err != nil {
			t.Fatalf("pre-crash job %s unanswerable after restart: %v", id, err)
		}
	}

	// The solo job and the whole sweep run to completion under the
	// restarted coordinator.
	fin, err := client2.Wait(context.Background(), soloSt.ID)
	if err != nil || fin.State != service.StateDone || fin.Result == nil {
		t.Fatalf("solo job after restart: %v %+v", err, fin)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := c2.WaitBatch(ctx, batchID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || len(res.Points) != points {
		t.Fatalf("recovered sweep: %d points, %d failed", len(res.Points), res.Failed)
	}

	// GET /v1/batch/{id} agrees the sweep is done.
	br, err := http.Get(front2.URL + "/v1/batch/" + batchID)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Body.Close()
	var bst BatchStatusPayload
	if err := json.NewDecoder(br.Body).Decode(&bst); err != nil {
		t.Fatal(err)
	}
	if br.StatusCode != http.StatusOK || !bst.Done || bst.Pending != 0 {
		t.Fatalf("batch status after recovery: code=%d %+v", br.StatusCode, bst)
	}

	// The crash must not have cost correctness: byte-identical to the
	// single-node path.
	ref := singleNodeReference(t, specs)
	for i, pt := range res.Points {
		if pt.Status.Result == nil {
			t.Fatalf("recovered point %d has no result: %+v", i, pt.Status.JobStatus)
		}
		if got := resultJSON(t, *pt.Status.Result); got != ref[i] {
			t.Errorf("point %d: recovered sweep diverges from single-node", i)
		}
	}
}

// TestChaosHeartbeatRevivesDroppedWorker cuts the coordinator→worker
// link at the TCP level until the worker is struck out, then shows a
// single heartbeat readmits it immediately — no waiting out the probe
// backoff — and traffic flows again.
func TestChaosHeartbeatRevivesDroppedWorker(t *testing.T) {
	w := newTestFleet(t, 1, service.Options{Workers: 1, WarmStarts: true})[0]
	px := chaos.NewProxy(t, w.srv.URL)

	reg := fastRegistry()
	reg.ProbeInterval = time.Hour // manual rounds only
	reg.BackoffBase = time.Minute // backoff alone cannot readmit in test time
	reg.BackoffMax = time.Minute
	coord, err := New(context.Background(), Options{Workers: []string{px.URL()}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if !coord.Registry().Routable("w0") {
		t.Fatal("worker not admitted through a healthy proxy")
	}

	px.Drop(true)
	coord.Registry().ProbeOnce(context.Background())
	coord.Registry().ProbeOnce(context.Background())
	if coord.Registry().Up("w0") {
		t.Fatal("worker survived a dead link")
	}

	// Link restored, but the worker sits in minutes of probe backoff —
	// only its own heartbeat can bring it back now.
	px.Drop(false)
	coord.Registry().ProbeOnce(context.Background())
	if coord.Registry().Up("w0") {
		t.Fatal("backoff ignored: down worker readmitted by a probe round")
	}
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	client := service.NewClient(front.URL)
	resp, err := client.Register(context.Background(), service.RegisterRequest{URL: px.URL(), Version: snapshot.FormatVersion})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != "w0" || resp.State != string(WorkerUp) {
		t.Fatalf("heartbeat response: %+v", resp)
	}
	if !coord.Registry().Routable("w0") {
		t.Fatal("heartbeat did not readmit the worker")
	}

	st, err := client.Submit(context.Background(), sweepSpec("web-search", 0))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := client.Wait(context.Background(), st.ID)
	if err != nil || fin.State != service.StateDone {
		t.Fatalf("job through revived worker: %v %+v", err, fin)
	}
}

// TestChaosDrainCordonLifecycle drives the admin verbs over HTTP:
// cordon diverts new placements immediately (in-flight work untouched,
// reversible), drain ejects only after the last in-flight job settles,
// and every transition is observable in /v1/cluster.
func TestChaosDrainCordonLifecycle(t *testing.T) {
	fleet := newTestFleet(t, 2, service.Options{Workers: 2, WarmStarts: true})
	coord := newTestCoordinator(t, fleet)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	client := service.NewClient(front.URL)

	verb := func(name, worker string) (WorkerInfo, int) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"worker": worker})
		resp, err := http.Post(front.URL+"/v1/cluster/"+name, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info WorkerInfo
		json.NewDecoder(resp.Body).Decode(&info)
		return info, resp.StatusCode
	}
	lifecycleOf := func(workerID string) Lifecycle {
		t.Helper()
		resp, err := http.Get(front.URL + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var top ClusterPayload
		if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
			t.Fatal(err)
		}
		for _, w := range top.Workers {
			if w.ID == workerID {
				return w.Lifecycle
			}
		}
		t.Fatalf("worker %s missing from /v1/cluster", workerID)
		return ""
	}
	submitTo := func(spec service.JobSpec) (service.JobStatus, string) {
		t.Helper()
		st, err := client.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		_, wid, err := SplitJobID(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return st, wid
	}

	// The worker that owns this workload's warm key.
	key, _, err := RouteKey(sweepSpec("web-search", 0))
	if err != nil {
		t.Fatal(err)
	}
	ownerID, ok := coord.Registry().Resolve(coord.Registry().Ring().Owner(key))
	if !ok {
		t.Fatal("ring owner not in registry")
	}
	otherID := "w0"
	if ownerID == "w0" {
		otherID = "w1"
	}

	// Cordon: placements divert off the owner at once.
	if info, code := verb("cordon", ownerID); code != http.StatusOK || info.Lifecycle != LifecycleCordoned {
		t.Fatalf("cordon: code=%d %+v", code, info)
	}
	if lc := lifecycleOf(ownerID); lc != LifecycleCordoned {
		t.Fatalf("/v1/cluster shows %s, want cordoned", lc)
	}
	st1, wid := submitTo(sweepSpec("web-search", 1))
	if wid != otherID {
		t.Fatalf("cordoned owner %s still took a placement (job %s)", ownerID, st1.ID)
	}

	// Uncordon: the owner's keys come home.
	if info, code := verb("uncordon", ownerID); code != http.StatusOK || info.Lifecycle != LifecycleActive {
		t.Fatalf("uncordon: code=%d %+v", code, info)
	}
	st2, wid := submitTo(sweepSpec("web-search", 2))
	if wid != ownerID {
		t.Fatalf("uncordoned owner %s not routed to (job went to %s)", ownerID, wid)
	}
	for _, id := range []string{st1.ID, st2.ID} {
		if fin, err := client.Wait(context.Background(), id); err != nil || fin.State != service.StateDone {
			t.Fatalf("job %s: %v", id, err)
		}
	}

	// Drain with work in flight: draining until the job settles, then
	// ejected; new placements divert meanwhile.
	long := sweepSpec("web-search", 3)
	long.MeasureCycles = 200_000_000
	stLong, wid := submitTo(long)
	if wid != ownerID {
		t.Fatalf("long job landed on %s, want owner %s", wid, ownerID)
	}
	if info, code := verb("drain", ownerID); code != http.StatusOK || info.Lifecycle != LifecycleDraining {
		t.Fatalf("drain with in-flight work: code=%d %+v (must wait, not eject)", code, info)
	}
	if _, wid := submitTo(sweepSpec("web-search", 4)); wid != ownerID {
		// expected: draining workers take no new placements
	} else {
		t.Fatalf("draining owner %s took a new placement", ownerID)
	}
	if _, err := client.Cancel(context.Background(), stLong.ID); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, func() bool { return lifecycleOf(ownerID) == LifecycleEjected },
		"drained worker not ejected after its last in-flight job settled")

	// Drain of an idle worker ejects immediately.
	waitUntil(t, 10*time.Second, func() bool {
		info, _ := coord.Registry().InfoFor(otherID)
		return info.Lifecycle == LifecycleActive && coord.Registry().Routable(otherID)
	}, "other worker not routable before idle drain")
	// Let its in-flight counter settle (drivers decrement just after the
	// client sees the terminal state).
	waitUntil(t, 10*time.Second, func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return coord.inflight[otherID] == 0
	}, "other worker never went idle")
	if info, code := verb("drain", otherID); code != http.StatusOK || info.Lifecycle != LifecycleEjected {
		t.Fatalf("idle drain: code=%d %+v (must eject immediately)", code, info)
	}
}

// TestChaosFleetToleratesFaultyWorkers seeds the fleet with two healthy
// workers, one that answers every request with an HTML 500 and one that
// hangs connections open (both from the shared faultserver vocabulary):
// the registry must hold both out of routing and the sweep must complete
// correctly on the survivors.
func TestChaosFleetToleratesFaultyWorkers(t *testing.T) {
	fleet := newTestFleet(t, 2, service.Options{Workers: 2, WarmStarts: true})
	sick := faultserver.New(t, faultserver.NonJSON500())
	hung := faultserver.New(t, faultserver.Hung())

	reg := fastRegistry()
	reg.ProbeInterval = time.Hour
	reg.ProbeTimeout = 200 * time.Millisecond // bound the hung probe
	reg.FailAfter = 1
	reg.BackoffBase = time.Minute
	reg.BackoffMax = time.Minute
	coord, err := New(context.Background(), Options{
		Workers:  []string{fleet[0].srv.URL, fleet[1].srv.URL, sick.URL, hung.URL},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	top := coord.Topology()
	if top.Status != "degraded" || top.Up != 2 || top.Total != 4 {
		t.Fatalf("topology with faulty workers: %+v", top)
	}

	specs := make([]service.JobSpec, 6)
	for i := range specs {
		specs[i] = sweepSpec("web-search", i)
	}
	res, err := coord.Batch(context.Background(), service.BatchSpec{Specs: specs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d failed points with faulty workers in the fleet", res.Failed)
	}
	ref := singleNodeReference(t, specs)
	for i, pt := range res.Points {
		if got := resultJSON(t, *pt.Status.Result); got != ref[i] {
			t.Errorf("point %d diverges from single-node with faulty workers present", i)
		}
	}
}

// TestChaosWireSeverFallsBackToJSON cuts the binary wire link between a
// client and its worker while a job is in flight: every pooled wire
// connection dies and new dials are refused. The client must fall back
// to HTTP/JSON transparently — the job is not lost, polling completes
// it, and the cached result stays reachable.
func TestChaosWireSeverFallsBackToJSON(t *testing.T) {
	w := newWireFleet(t, 1, service.Options{Workers: 1, WarmStarts: true})[0]
	proxy := chaos.NewTCPProxy(t, w.wire.Addr().String())

	client := service.NewClient(w.srv.URL)
	client.WireAddr = proxy.Addr() // pin the faultable front, skip negotiation
	t.Cleanup(func() { client.Close() })

	spec := sweepSpec("web-search", 0)
	spec.MeasureCycles = 2_000_000 // long enough to outlive the sever
	st, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ws := client.WireStats(); ws.Calls == 0 {
		t.Fatalf("submit did not use the wire path: %+v", ws)
	}

	// Sever: close the live pooled connections and refuse new ones.
	proxy.Drop(true)

	fin, err := client.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("wait across a severed wire link: %v", err)
	}
	if fin.State != service.StateDone || fin.Result == nil {
		t.Fatalf("job lost after wire sever: %s (%s)", fin.State, fin.Error)
	}
	ws := client.WireStats()
	if ws.Fallbacks == 0 {
		t.Errorf("severed wire link never fell back to JSON: %+v", ws)
	}

	// The result is still served (over JSON) by hash.
	res, ok, err := client.ResultByHash(context.Background(), fin.Hash)
	if err != nil || !ok {
		t.Fatalf("ResultByHash after sever: ok=%v err=%v", ok, err)
	}
	if resultJSON(t, res) != resultJSON(t, *fin.Result) {
		t.Error("post-sever hash lookup diverges from the job result")
	}

	// Restore the link: the client recovers the wire path after its
	// retry window instead of staying demoted forever.
	proxy.Drop(false)
	callsBefore := client.WireStats().Calls
	deadline := time.After(10 * time.Second)
	for client.WireStats().Calls == callsBefore {
		if _, err := client.Job(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
		select {
		case <-deadline:
			t.Fatal("client never re-negotiated onto the restored wire link")
		case <-time.After(50 * time.Millisecond):
		}
	}
}
