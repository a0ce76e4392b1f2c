package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"bump/internal/obs"
	"bump/internal/service"
	"bump/internal/snapshot"
	"bump/internal/wal"
)

// Options configures a Coordinator.
type Options struct {
	// Workers are the seed backend bumpd base URLs. May be empty:
	// workers can also join (and rejoin) the fleet by heartbeating
	// POST /v1/cluster/register (bumpd -coordinator).
	Workers []string
	// Registry tunes probing/ejection (zero value: defaults).
	Registry RegistryOptions
	// BatchConcurrency bounds in-flight points across batches (default
	// 64; execution parallelism is bounded by the workers' own pools,
	// this only caps coordinator-side goroutines and open watch streams).
	BatchConcurrency int
	// DataDir is the WAL directory for durable coordinator state; empty
	// means memory-only (embedded coordinators, tests). With a data dir,
	// a coordinator restarted on the same directory replays its log,
	// re-answers every pre-crash job ID, and re-drives unfinished work.
	DataDir string
	// WAL tunes segment rotation and fsync; CompactEvery the checkpoint
	// cadence (see StoreOptions).
	WAL          wal.Options
	CompactEvery uint64
	// RetainJobs bounds retained terminal solo-job records;
	// RetainBatches bounds retained completed sweeps (with their point
	// jobs). Defaults 4096 and 64.
	RetainJobs    int
	RetainBatches int
	// RetryInterval paces placement retries while no worker is routable
	// (default 250ms). A job is never failed for lack of workers — it
	// waits out the outage.
	RetryInterval time.Duration
	// Replicas is how many leading routable ring successors the
	// background replicator keeps supplied per advertised checkpoint
	// digest — warm roots and checkpoint-tree nodes alike (default 2:
	// the owner plus its exact failover target). Larger fleets sweeping
	// deep fork trees can raise it to survive multi-worker loss at the
	// cost of proportional transfer traffic.
	Replicas int
	// Metrics, when non-nil, gets the coordinator's collectors (fleet
	// topology, job states, WAL, aggregated worker wire stats) and is
	// served at GET /metrics.
	Metrics *obs.Registry
	// Tracer, when non-nil, records coordinator-side spans (route,
	// await, failover, checkpoint prefetch/replicate) per tracked job;
	// GET /v1/jobs/{id}/trace stitches the assigned worker's spans onto
	// them under one trace ID.
	Tracer *obs.Tracer
	// Logger receives structured fleet/job lifecycle events (failovers,
	// registrations, ejections) with job and trace IDs attached. Nil
	// discards them.
	Logger *slog.Logger
}

// Coordinator federates the fleet behind the single-worker /v1 API plus
// cluster-only endpoints (/v1/cluster topology and admin verbs,
// /v1/batch sweeps). Every accepted job and sweep is recorded in the
// Store before the client hears about it; per-job driver goroutines
// carry each one to a terminal state, failing over across workers and
// surviving coordinator restarts (drivers are respawned from the WAL).
type Coordinator struct {
	reg    *Registry
	router *Router
	store  *Store
	opts   Options
	start  time.Time

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	sem    chan struct{} // batch point concurrency

	mu          sync.Mutex
	batches     map[string]*batchEntry
	inflight    map[string]int // worker ID -> jobs assigned to it
	soloRetain  []string
	batchRetain []string

	// wireAddr is the coordinator's own advertised binary listener (set
	// via SetWireAddr before serving traffic; surfaced in /v1/healthz).
	wireAddr string
	// replicated memoizes replication attempts (worker ID + digest) so
	// ReplicateOnce does not re-ask a worker that already fetched or
	// failed this round cadence.
	replicated map[string]time.Time

	// tracer records coordinator-side spans; keyJobs maps a warm key to
	// the traced job that last routed under it, so checkpoint-transfer
	// spans (keyed by digest, not job) land on the right timeline.
	tracer  *obs.Tracer
	keyJobs map[string]string
	log     *slog.Logger
}

// New builds a coordinator: opens (and replays) the store, seeds the
// registry from persisted fleet membership plus opts.Workers, runs one
// synchronous probe round so a healthy fleet is routable before New
// returns, and respawns drivers for every job that was in flight when
// the previous coordinator died.
func New(ctx context.Context, opts Options) (*Coordinator, error) {
	if opts.BatchConcurrency <= 0 {
		opts.BatchConcurrency = 64
	}
	if opts.RetryInterval <= 0 {
		opts.RetryInterval = 250 * time.Millisecond
	}
	if opts.RetainJobs <= 0 {
		opts.RetainJobs = 4096
	}
	if opts.RetainBatches <= 0 {
		opts.RetainBatches = 64
	}
	if opts.Replicas <= 0 {
		opts.Replicas = defaultReplicaTargets
	}
	store, err := OpenStore(StoreOptions{Dir: opts.DataDir, WAL: opts.WAL, CompactEvery: opts.CompactEvery})
	if err != nil {
		return nil, err
	}
	reg, err := NewRegistry(nil, opts.Registry)
	if err != nil {
		store.Close()
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			reg.Close()
			store.Close()
		}
	}()
	// Persisted membership first: its worker IDs are referenced by
	// recovered job records and must win any ID assignment race with the
	// seed list.
	for _, wr := range store.FleetWorkers() {
		w, err := reg.Add(wr.URL, wr.ID)
		if err != nil {
			return nil, err
		}
		if wr.Lifecycle != "" && wr.Lifecycle != LifecycleActive {
			reg.SetLifecycle(w.ID, wr.Lifecycle)
		}
	}
	for _, url := range opts.Workers {
		if _, found := reg.WorkerByURL(strings.TrimSpace(strings.TrimRight(url, "/"))); found {
			continue
		}
		w, err := reg.Add(url, "")
		if err != nil {
			return nil, err
		}
		if err := store.PutWorker(WorkerRecord{ID: w.ID, URL: w.URL, Lifecycle: LifecycleActive}); err != nil {
			return nil, err
		}
	}
	reg.ProbeOnce(ctx)
	rctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		reg:        reg,
		router:     NewRouter(reg),
		store:      store,
		opts:       opts,
		start:      time.Now(),
		ctx:        rctx,
		cancel:     cancel,
		sem:        make(chan struct{}, opts.BatchConcurrency),
		batches:    make(map[string]*batchEntry),
		inflight:   make(map[string]int),
		replicated: make(map[string]time.Time),
		tracer:     opts.Tracer,
		keyJobs:    make(map[string]string),
		log:        opts.Logger,
	}
	if c.log == nil {
		c.log = slog.New(slog.DiscardHandler)
	}
	if opts.Metrics != nil {
		c.registerCollectors(opts.Metrics)
	}
	// Failover checkpoint transfer: before a spec lands on a worker that
	// does not hold its warm checkpoint, pull it from a peer that does.
	c.router.Prefetch = c.prefetchCheckpoint
	c.recover()
	c.wg.Add(1)
	go c.replicateLoop()
	ok = true
	return c, nil
}

// SetWireAddr records the coordinator's advertised binary listener for
// /v1/healthz. Call before serving traffic.
func (c *Coordinator) SetWireAddr(addr string) { c.wireAddr = addr }

// Close stops the drivers, probe loop and store. Deliberately
// crash-equivalent for the WAL (no final checkpoint): unfinished jobs
// stay non-terminal on disk and are re-driven by the next coordinator
// on this data directory.
func (c *Coordinator) Close() {
	c.cancel()
	c.wg.Wait()
	c.reg.Close()
	c.store.Close()
}

// Registry exposes the worker registry (topology, stats, probing).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Store exposes the durable job/fleet store.
func (c *Coordinator) Store() *Store { return c.store }

// recover respawns the driver goroutines for every non-terminal job and
// every unplaced batch point found in the replayed store. A job still
// assigned to a live worker is simply re-awaited (and, because worker
// pools coalesce by config hash, even a re-submission would attach to
// the in-flight execution rather than re-run it); a job on a dead or
// departed worker re-routes through the ordinary failover path.
func (c *Coordinator) recover() {
	batches := c.store.Batches()
	linked := make(map[string]bool)
	for _, b := range batches {
		for _, jid := range b.Jobs {
			if jid != "" {
				linked[jid] = true
			}
		}
	}
	for _, j := range c.store.Jobs() {
		if j.State.Terminal() {
			continue
		}
		if j.Batch != "" && !linked[j.ID] {
			// The previous coordinator died between writing this point's
			// job record and linking it into the batch; the point will be
			// re-placed under a fresh record, so retire the orphan.
			j.State = service.StateFailed
			j.Error = "orphaned by coordinator crash during placement"
			c.store.PutJob(j)
			continue
		}
		if j.Worker != "" {
			c.mu.Lock()
			c.inflight[j.Worker]++
			c.mu.Unlock()
		}
		if j.Batch == "" {
			c.wg.Add(1)
			go c.drive(j.ID)
		}
	}
	for _, b := range batches {
		be := newBatchEntry(len(b.Specs))
		for _, jid := range b.Jobs {
			if jid == "" {
				continue
			}
			if rec, ok := c.store.Job(jid); ok && rec.State.Terminal() {
				be.fold(c.toPoint(rec))
			}
		}
		c.mu.Lock()
		c.batches[b.ID] = be
		c.mu.Unlock()
		if be.finished() {
			c.retireBatch(b.ID)
			continue
		}
		for i, jid := range b.Jobs {
			if jid != "" {
				if rec, ok := c.store.Job(jid); ok && rec.State.Terminal() {
					continue
				}
			}
			c.wg.Add(1)
			go c.drivePoint(b.ID, i)
		}
	}
}

// statusFromRecord rebuilds the client-visible status from a stored
// record (used for terminal answers and while a job awaits placement).
func statusFromRecord(rec JobRecord) service.JobStatus {
	return service.JobStatus{
		ID:       rec.ID,
		Hash:     rec.Hash,
		State:    rec.State,
		Cached:   rec.Cached,
		Priority: rec.Spec.Priority,
		Spec:     rec.Spec,
		Result:   rec.Result,
		Error:    rec.Error,
	}
}

// applyStatus folds a worker's terminal status into the record.
func applyStatus(rec *JobRecord, st service.JobStatus) {
	rec.State = st.State
	rec.Hash = st.Hash
	rec.Cached = st.Cached
	rec.Result = st.Result
	rec.Error = st.Error
}

func (c *Coordinator) toPoint(rec JobRecord) service.BatchPoint {
	var worker string
	if w, ok := c.reg.Worker(rec.Worker); ok {
		worker = w.ID
	}
	return service.BatchPoint{Index: rec.Index, Worker: worker, Status: service.PayloadFor(statusFromRecord(rec))}
}

// drive carries one solo job to a terminal state.
func (c *Coordinator) drive(id string) {
	defer c.wg.Done()
	c.driveJob(id)
}

// driveJob is the tracked-job state machine: place (or re-place) the
// spec on the key's ring sequence, await the worker, and persist the
// terminal outcome. Worker-side failures strike the worker and fail
// over; an empty fleet is waited out (struck workers become eligible
// again once the registry readmits them). Re-execution after failover
// is safe because results are a deterministic function of the
// configuration — and a re-submission to a worker still running the job
// coalesces onto the in-flight execution by config hash.
func (c *Coordinator) driveJob(id string) {
	tried := make(map[string]bool)
	for {
		rec, ok := c.store.Job(id)
		if !ok || c.ctx.Err() != nil {
			return
		}
		if rec.State.Terminal() {
			c.finish(rec, false)
			return
		}
		if rec.Worker == "" {
			if c.tracer != nil {
				// Begin is idempotent; recovered and batch-point jobs get
				// their ID minted here, and the worker receives it in the
				// spec so both sides' spans share one trace.
				rec.Spec.TraceID = c.tracer.Begin(id, rec.Spec.TraceID)
				c.noteKeyJob(rec.Key, id)
			}
			routeT0 := time.Now()
			st, wk, err := c.router.Submit(c.ctx, rec.Key, rec.Spec, tried)
			switch {
			case errors.Is(err, ErrNoWorkers):
				tried = make(map[string]bool)
				select {
				case <-c.ctx.Done():
					return
				case <-time.After(c.opts.RetryInterval):
				}
				continue
			case err != nil:
				if c.ctx.Err() != nil {
					return
				}
				// Client fault (or every worker rejecting the spec):
				// failing over further would only repeat the rejection.
				rec.State = service.StateFailed
				rec.Error = err.Error()
				c.log.Warn("job failed at placement", "job", id,
					"trace", rec.Spec.TraceID, "error", err)
				c.finish(rec, true)
				return
			}
			c.span(id, "route", routeT0, time.Now(),
				obs.SpanArg{Key: "worker", Val: wk.ID},
				obs.SpanArg{Key: "key", Val: rec.Key})
			c.log.Debug("job placed", "job", id, "trace", rec.Spec.TraceID,
				"worker", wk.ID, "key", rec.Key)
			// A cancel may have landed while the job was unplaced; don't
			// resurrect it.
			if cur, ok := c.store.Job(id); ok && cur.State.Terminal() {
				wk.Client.Cancel(c.ctx, st.ID)
				c.finish(cur, false)
				return
			}
			rec.Hash = st.Hash
			if st.State.Terminal() {
				applyStatus(&rec, st)
				rec.Worker = wk.ID
				c.finish(rec, true)
				return
			}
			rec.State, rec.Worker, rec.Local = st.State, wk.ID, st.ID
			c.store.PutJob(rec)
			c.mu.Lock()
			c.inflight[wk.ID]++
			c.mu.Unlock()
			continue
		}
		// Assigned: await the worker's verdict.
		wk, okw := c.reg.Worker(rec.Worker)
		var st service.JobStatus
		var err error
		awaitT0 := time.Now()
		if okw {
			st, err = wk.Client.Wait(c.ctx, rec.Local)
		} else {
			err = fmt.Errorf("cluster: worker %s left the registry", rec.Worker)
		}
		if c.ctx.Err() != nil {
			return
		}
		if err == nil {
			c.span(id, "await", awaitT0, time.Now(),
				obs.SpanArg{Key: "worker", Val: rec.Worker})
			applyStatus(&rec, st)
			c.markUnassigned(rec.Worker)
			c.finish(rec, true)
			return
		}
		c.instant(id, "failover",
			obs.SpanArg{Key: "worker", Val: rec.Worker},
			obs.SpanArg{Key: "error", Val: err.Error()})
		c.log.Warn("job failing over", "job", id, "trace", rec.Spec.TraceID,
			"worker", rec.Worker, "error", err)
		if okw {
			c.reg.ReportFailure(wk.ID, err)
			tried[wk.ID] = true
		}
		prev := rec.Worker
		rec.Worker, rec.Local = "", ""
		rec.State = service.StateQueued
		c.store.PutJob(rec)
		c.markUnassigned(prev)
	}
}

// markUnassigned decrements a worker's in-flight count; a draining
// worker whose count hits zero is ejected (that is drain's completion
// condition).
func (c *Coordinator) markUnassigned(workerID string) {
	if workerID == "" {
		return
	}
	c.mu.Lock()
	c.inflight[workerID]--
	n := c.inflight[workerID]
	if n <= 0 {
		delete(c.inflight, workerID)
	}
	c.mu.Unlock()
	if n > 0 {
		return
	}
	if lc, ok := c.reg.Lifecycle(workerID); ok && lc == LifecycleDraining {
		c.eject(workerID)
	}
}

func (c *Coordinator) eject(workerID string) {
	info, err := c.reg.SetLifecycle(workerID, LifecycleEjected)
	if err == nil {
		c.store.PutWorker(WorkerRecord{ID: info.ID, URL: info.URL, Lifecycle: LifecycleEjected})
		c.log.Info("worker ejected", "worker", info.ID, "url", info.URL)
	}
}

// finish settles a terminal record: persist it (unless the caller
// already did), deliver it to its batch tracker, and enroll it in the
// bounded retention window.
func (c *Coordinator) finish(rec JobRecord, persist bool) {
	if persist {
		c.store.PutJob(rec)
	}
	if rec.Batch != "" {
		c.mu.Lock()
		be := c.batches[rec.Batch]
		c.mu.Unlock()
		if be != nil {
			be.fold(c.toPoint(rec))
			if be.finished() {
				c.retireBatch(rec.Batch)
			}
		}
		return
	}
	c.retireJob(rec.ID)
}

// retireJob enforces solo-job retention: beyond RetainJobs (plus slack,
// so the compaction each eviction triggers is amortized) the oldest
// terminal records are dropped.
func (c *Coordinator) retireJob(id string) {
	var drop []string
	c.mu.Lock()
	c.soloRetain = append(c.soloRetain, id)
	if slack := c.opts.RetainJobs + c.opts.RetainJobs/8 + 1; len(c.soloRetain) > slack {
		n := len(c.soloRetain) - c.opts.RetainJobs
		drop = append(drop, c.soloRetain[:n]...)
		c.soloRetain = append(c.soloRetain[:0], c.soloRetain[n:]...)
	}
	c.mu.Unlock()
	if len(drop) > 0 {
		c.store.DropJobs(drop)
	}
}

// retireBatch enforces sweep retention: completed batches beyond
// RetainBatches are dropped with their point jobs.
func (c *Coordinator) retireBatch(id string) {
	var drop []string
	c.mu.Lock()
	c.batchRetain = append(c.batchRetain, id)
	for len(c.batchRetain) > c.opts.RetainBatches {
		old := c.batchRetain[0]
		c.batchRetain = c.batchRetain[1:]
		delete(c.batches, old)
		drop = append(drop, old)
	}
	c.mu.Unlock()
	for _, old := range drop {
		c.store.DropBatch(old)
	}
}

// batchEntry is the in-memory completion tracker for one sweep.
type batchEntry struct {
	n    int
	mu   sync.Mutex
	comp []service.BatchPoint // completion order
	rem  int
	subs map[int]chan service.BatchPoint
	next int
	done chan struct{}
}

func newBatchEntry(n int) *batchEntry {
	return &batchEntry{n: n, rem: n, subs: make(map[int]chan service.BatchPoint), done: make(chan struct{})}
}

// fold records one completed point and fans it out. Subscriber channels
// are buffered for the whole batch and each point arrives exactly once,
// so the sends never block.
func (b *batchEntry) fold(pt service.BatchPoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.comp = append(b.comp, pt)
	for _, ch := range b.subs {
		ch <- pt
	}
	b.rem--
	if b.rem == 0 {
		close(b.done)
	}
}

func (b *batchEntry) finished() bool {
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// subscribe returns a channel replaying every already-completed point
// and then live completions, plus a cancel func.
func (b *batchEntry) subscribe() (<-chan service.BatchPoint, func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := make(chan service.BatchPoint, b.n)
	for _, pt := range b.comp {
		ch <- pt
	}
	id := b.next
	b.next++
	b.subs[id] = ch
	return ch, func() {
		b.mu.Lock()
		delete(b.subs, id)
		b.mu.Unlock()
	}
}

// Run executes one spec through the cluster: affinity-routed, failing
// over to the next worker in the key's preference sequence on worker
// loss. The Go-API twin of POST /v1/jobs + wait (untracked: callers
// that want durability submit over HTTP).
func (c *Coordinator) Run(ctx context.Context, spec service.JobSpec) (service.JobStatus, error) {
	st, _, err := c.router.Run(ctx, spec)
	return st, err
}

// StartBatch durably registers a sweep and spawns its point drivers.
// The batch record (full spec list) hits the WAL before any placement,
// so a coordinator crash mid-sweep recovers the whole sweep — placed
// points by their job records, unplaced ones from the spec list.
func (c *Coordinator) StartBatch(spec service.BatchSpec) (string, error) {
	if len(spec.Specs) == 0 {
		return "", fmt.Errorf("cluster: empty batch")
	}
	if len(spec.Specs) > service.MaxBatchPoints {
		return "", fmt.Errorf("cluster: batch of %d points exceeds the %d-point limit", len(spec.Specs), service.MaxBatchPoints)
	}
	id := c.store.NextBatchID()
	rec := BatchRecord{ID: id, Specs: spec.Specs, Jobs: make([]string, len(spec.Specs))}
	if err := c.store.PutBatch(rec); err != nil {
		return "", err
	}
	be := newBatchEntry(len(spec.Specs))
	c.mu.Lock()
	c.batches[id] = be
	c.mu.Unlock()
	for i := range spec.Specs {
		c.wg.Add(1)
		go c.drivePoint(id, i)
	}
	return id, nil
}

// drivePoint places one batch point (creating its job record and
// linking it into the batch on first placement) and drives it to a
// terminal state under the batch concurrency semaphore.
func (c *Coordinator) drivePoint(batchID string, i int) {
	defer c.wg.Done()
	select {
	case c.sem <- struct{}{}:
	case <-c.ctx.Done():
		return
	}
	defer func() { <-c.sem }()
	b, ok := c.store.Batch(batchID)
	if !ok {
		return
	}
	id := b.Jobs[i]
	if id == "" {
		id = c.store.NextJobID()
		rec := JobRecord{ID: id, Spec: b.Specs[i], State: service.StateQueued, Batch: batchID, Index: i}
		key, _, err := RouteKey(b.Specs[i])
		if err != nil {
			rec.State = service.StateFailed
			rec.Error = err.Error()
		}
		rec.Key = key
		if err := c.store.PutJob(rec); err != nil {
			rec.State = service.StateFailed
			rec.Error = err.Error()
			c.finish(rec, false)
			return
		}
		c.store.SetBatchJob(batchID, i, id)
		if rec.State.Terminal() {
			c.finish(rec, false)
			return
		}
	}
	c.driveJob(id)
}

// batchResult assembles a sweep's aggregate from the store: points in
// submission order, pending counting the not-yet-terminal ones.
func (c *Coordinator) batchResult(id string) (res service.BatchResult, ok bool, pending int) {
	b, ok := c.store.Batch(id)
	if !ok {
		return service.BatchResult{}, false, 0
	}
	res.Points = make([]service.BatchPoint, len(b.Specs))
	for i, jid := range b.Jobs {
		res.Points[i] = service.BatchPoint{Index: i}
		if jid == "" {
			pending++
			continue
		}
		rec, okj := c.store.Job(jid)
		if !okj {
			pending++
			continue
		}
		res.Points[i] = c.toPoint(rec)
		switch {
		case !rec.State.Terminal():
			pending++
		case rec.State != service.StateDone:
			res.Failed++
		}
	}
	return res, true, pending
}

// WaitBatch streams a tracked sweep's completions to onPoint
// (serialized; may be nil) until every point is terminal or ctx
// expires, then returns the aggregate in submission order.
func (c *Coordinator) WaitBatch(ctx context.Context, id string, onPoint func(service.BatchPoint)) (service.BatchResult, error) {
	c.mu.Lock()
	be := c.batches[id]
	c.mu.Unlock()
	if be == nil {
		res, ok, pending := c.batchResult(id)
		if !ok {
			return service.BatchResult{}, fmt.Errorf("cluster: unknown batch %q", id)
		}
		if pending > 0 {
			return res, fmt.Errorf("cluster: batch %s has no live tracker", id)
		}
		if onPoint != nil {
			for _, pt := range res.Points {
				onPoint(pt)
			}
		}
		return res, nil
	}
	ch, cancelSub := be.subscribe()
	defer cancelSub()
	for got := 0; got < be.n; got++ {
		select {
		case pt := <-ch:
			if onPoint != nil {
				onPoint(pt)
			}
		case <-ctx.Done():
			res, _, _ := c.batchResult(id)
			return res, ctx.Err()
		case <-c.ctx.Done():
			res, _, _ := c.batchResult(id)
			return res, c.ctx.Err()
		}
	}
	res, _, _ := c.batchResult(id)
	return res, ctx.Err()
}

// Batch executes a whole sweep across the fleet: every point routed by
// its own affinity key, completions streamed to onPoint (serialized;
// may be nil) as they land, aggregate returned in submission order. The
// sweep is durably tracked — with a DataDir it survives coordinator
// restarts.
func (c *Coordinator) Batch(ctx context.Context, spec service.BatchSpec, onPoint func(service.BatchPoint)) (service.BatchResult, error) {
	id, err := c.StartBatch(spec)
	if err != nil {
		return service.BatchResult{}, err
	}
	return c.WaitBatch(ctx, id, onPoint)
}

// ClusterPayload is served by GET /v1/cluster: coordinator identity and
// per-worker topology, admission state, lifecycle and statistics.
type ClusterPayload struct {
	Status string `json:"status"`
	// Version is the snapshot format version this coordinator requires
	// of workers; Uptime is coordinator uptime in seconds.
	Version int     `json:"version"`
	Uptime  float64 `json:"uptime_s"`
	// Up of Total workers are currently admitted.
	Up      int          `json:"up"`
	Total   int          `json:"total"`
	Workers []WorkerInfo `json:"workers"`
	// Jobs/Batches count currently tracked (retained) records.
	Jobs    int `json:"tracked_jobs"`
	Batches int `json:"tracked_batches"`
}

// Topology snapshots the cluster for /v1/cluster.
func (c *Coordinator) Topology() ClusterPayload {
	infos := c.reg.Info()
	up := 0
	for _, w := range infos {
		if w.State == WorkerUp {
			up++
		}
	}
	status := "ok"
	switch {
	case up == 0:
		status = "down"
	case up < len(infos):
		status = "degraded"
	}
	st := c.store.Stats()
	return ClusterPayload{
		Status:  status,
		Version: c.reg.opts.FormatVersion,
		Uptime:  time.Since(c.start).Seconds(),
		Up:      up,
		Total:   len(infos),
		Workers: infos,
		Jobs:    st.Jobs,
		Batches: st.Batches,
	}
}

// Health aggregates the fleet into the single-worker health shape (so
// existing /v1/healthz clients read cluster-wide statistics unchanged)
// plus the coordinator's own durability stats.
func (c *Coordinator) Health() service.HealthPayload {
	top := c.Topology()
	h := service.HealthPayload{
		Status:  top.Status,
		Version: snapshot.FormatVersion,
		Uptime:  top.Uptime,
	}
	for _, w := range top.Workers {
		if w.State != WorkerUp {
			continue
		}
		s := w.Stats
		h.Stats.Workers += s.Workers
		h.Stats.Queued += s.Queued
		h.Stats.Running += s.Running
		h.Stats.Completed += s.Completed
		h.Stats.Executions += s.Executions
		h.Stats.Coalesced += s.Coalesced
		h.Stats.Cache.Entries += s.Cache.Entries
		h.Stats.Cache.Capacity += s.Cache.Capacity
		h.Stats.Cache.Hits += s.Cache.Hits
		h.Stats.Cache.Misses += s.Cache.Misses
		h.Stats.Cache.Evictions += s.Cache.Evictions
		h.Stats.Warm.Hits += s.Warm.Hits
		h.Stats.Warm.Misses += s.Warm.Misses
		h.Stats.Warm.Skipped += s.Warm.Skipped
		h.Stats.Warm.WarmupCyclesSimulated += s.Warm.WarmupCyclesSimulated
		h.Stats.Warm.WarmupCyclesReused += s.Warm.WarmupCyclesReused
		h.Stats.Warm.Installed += s.Warm.Installed
	}
	h.WireAddr = c.wireAddr
	h.Conns = service.SharedConnStats()
	st := c.store.Stats()
	ws := &service.WALStats{
		Durable:         st.Durable,
		Segments:        st.WAL.Segments,
		SizeBytes:       st.WAL.SizeBytes,
		ReplayedRecords: st.WAL.Replayed,
		AppendedRecords: st.WAL.Appended,
		TornTailHealed:  st.WAL.TornTail,
		Compactions:     st.WAL.Compactions,
		ReplayedJobs:    st.ReplayedJobs,
		RecoveredJobs:   st.RecoveredJobs,
		TrackedJobs:     st.Jobs,
		TrackedBatches:  st.Batches,
	}
	if !st.WAL.LastCompaction.IsZero() {
		ws.LastCompaction = st.WAL.LastCompaction.UTC().Format(time.RFC3339)
	}
	h.WAL = ws
	return h
}

// Handler exposes the coordinator over HTTP. The /v1/jobs* routes speak
// the exact single-worker wire protocol (job IDs are coordinator-minted
// but remain opaque strings to clients); /v1/cluster and /v1/batch are
// the cluster-level additions, including the admin verbs
// register/cordon/uncordon/drain.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.job)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.cancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.events)
	mux.HandleFunc("POST /v1/batch", c.batch)
	mux.HandleFunc("GET /v1/batch/{id}", c.batchStatus)
	mux.HandleFunc("GET /v1/results/{hash}", c.result)
	mux.HandleFunc("GET /v1/healthz", c.healthz)
	mux.HandleFunc("GET /v1/cluster", c.cluster)
	mux.HandleFunc("POST /v1/cluster/register", c.register)
	mux.HandleFunc("POST /v1/cluster/cordon", c.lifecycleVerb(LifecycleCordoned))
	mux.HandleFunc("POST /v1/cluster/uncordon", c.lifecycleVerb(LifecycleActive))
	mux.HandleFunc("POST /v1/cluster/drain", c.drain)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", c.trace)
	mux.HandleFunc("GET /metrics", c.metrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// proxyError maps a worker-call failure onto the coordinator's own
// response: API errors pass through their status code (worker identity
// already embedded in the message); transport failures become 502.
func proxyError(w http.ResponseWriter, err error) {
	var apiErr *service.APIError
	if errors.As(err, &apiErr) {
		writeError(w, apiErr.Code, "%s", apiErr.Message)
		return
	}
	writeError(w, http.StatusBadGateway, "%v", err)
}

// submit routes a job to its affinity worker (failing over on submit
// errors), records it durably, spawns its driver, and returns the
// worker's response under the coordinator-minted job ID — the same
// 200/202 semantics as a single worker. The ID is persisted before the
// client sees it, so it stays answerable across a coordinator restart.
func (c *Coordinator) submit(w http.ResponseWriter, r *http.Request) {
	var spec service.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	if spec.TraceID == "" {
		spec.TraceID = r.Header.Get(service.TraceHeader)
	}
	st, err := c.SubmitJob(r.Context(), spec)
	if err != nil {
		proxyError(w, err)
		return
	}
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, service.PayloadFor(st))
}

// resolve parses a legacy namespaced job ID ("jNNN@wK", minted by
// Router.Run) and returns its worker.
func (c *Coordinator) resolve(id string) (*Worker, string, error) {
	jobID, workerID, err := SplitJobID(id)
	if err != nil {
		return nil, "", err
	}
	wk, ok := c.reg.Worker(workerID)
	if !ok {
		return nil, "", fmt.Errorf("cluster: unknown worker %q in job ID %q", workerID, id)
	}
	return wk, jobID, nil
}

func (c *Coordinator) job(w http.ResponseWriter, r *http.Request) {
	st, err := c.JobByID(r.Context(), r.PathValue("id"))
	if err != nil {
		proxyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, service.PayloadFor(st))
}

func (c *Coordinator) cancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if rec, ok := c.store.Job(id); ok {
		if rec.State.Terminal() {
			writeError(w, http.StatusConflict, "job %s is unknown or already terminal", id)
			return
		}
		if rec.Worker != "" {
			if wk, okw := c.reg.Worker(rec.Worker); okw {
				st, err := wk.Client.Cancel(r.Context(), rec.Local)
				if err != nil {
					proxyError(w, err)
					return
				}
				st.ID = rec.ID
				writeJSON(w, http.StatusOK, service.PayloadFor(st))
				return
			}
		}
		// Unplaced: settle it directly; the driver observes the terminal
		// record and stands down.
		rec.State = service.StateCanceled
		if err := c.store.PutJob(rec); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, service.PayloadFor(statusFromRecord(rec)))
		return
	}
	wk, jobID, err := c.resolve(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	st, err := wk.Client.Cancel(r.Context(), jobID)
	if err != nil {
		proxyError(w, err)
		return
	}
	st.ID = JoinJobID(st.ID, wk.ID)
	writeJSON(w, http.StatusOK, service.PayloadFor(st))
}

// events streams a job's progress as SSE. For tracked jobs the worker's
// stream is proxied with terminal payload IDs rewritten to the
// coordinator's; already-terminal jobs get their single terminal event
// straight from the store.
func (c *Coordinator) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	fl, flOK := w.(http.Flusher)
	if !flOK {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	startStream := func() {
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
	}
	var wk *Worker
	var local string
	var mapID func(p *service.JobPayload)
	if rec, ok := c.store.Job(id); ok {
		if rec.State.Terminal() {
			startStream()
			data, err := json.Marshal(service.PayloadFor(statusFromRecord(rec)))
			if err == nil {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", rec.State, data)
				fl.Flush()
			}
			return
		}
		if rec.Worker == "" {
			writeError(w, http.StatusServiceUnavailable, "job %s awaits placement; retry", id)
			return
		}
		wkk, okw := c.reg.Worker(rec.Worker)
		if !okw {
			writeError(w, http.StatusBadGateway, "worker %s unavailable", rec.Worker)
			return
		}
		wk, local = wkk, rec.Local
		mapID = func(p *service.JobPayload) { p.ID = id }
	} else {
		var err error
		wk, local, err = c.resolve(id)
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		mapID = func(p *service.JobPayload) { p.ID = JoinJobID(p.ID, wk.ID) }
	}
	started := false
	err := wk.Client.Events(r.Context(), local, func(ev service.Event) error {
		if !started {
			startStream()
			started = true
		}
		data := ev.Data
		if service.State(ev.Name).Terminal() {
			var p service.JobPayload
			if err := json.Unmarshal(ev.Data, &p); err == nil {
				mapID(&p)
				if re, err := json.Marshal(p); err == nil {
					data = re
				}
			}
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Name, data)
		fl.Flush()
		return nil
	})
	if err == nil || r.Context().Err() != nil {
		return
	}
	// The worker failed, not the client: strike it so ejection does not
	// wait for the next probe round, and tell the client the stream
	// broke (a silent end is indistinguishable from a worker that never
	// emitted its terminal event).
	c.reg.ReportFailure(wk.ID, err)
	if !started {
		proxyError(w, err)
		return
	}
	data, _ := json.Marshal(map[string]string{"error": err.Error()})
	fmt.Fprintf(w, "event: error\ndata: %s\n\n", data)
	fl.Flush()
}

// batch runs a whole sweep through the cluster; wire-compatible with
// the single-worker /v1/batch (SSE or JSON aggregate), with each point
// additionally naming the worker that served it.
func (c *Coordinator) batch(w http.ResponseWriter, r *http.Request) {
	var spec service.BatchSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "invalid batch spec: %v", err)
		return
	}
	if !strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		res, err := c.Batch(r.Context(), spec, nil)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	id, err := c.StartBatch(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	writeEvent := func(name string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
		fl.Flush()
	}
	// Announce the durable ID first: a client watching a sweep can
	// requery GET /v1/batch/{id} after a coordinator restart.
	writeEvent("batch-start", map[string]string{"id": id})
	res, err := c.WaitBatch(r.Context(), id, func(pt service.BatchPoint) {
		writeEvent("point", pt)
	})
	if err != nil {
		writeEvent("error", map[string]string{"error": err.Error()})
		return
	}
	writeEvent("batch", res)
}

// BatchStatusPayload is served by GET /v1/batch/{id}: sweep progress
// and the (possibly partial) aggregate, rebuildable across restarts.
type BatchStatusPayload struct {
	ID      string              `json:"id"`
	Done    bool                `json:"done"`
	Pending int                 `json:"pending"`
	Result  service.BatchResult `json:"result"`
}

func (c *Coordinator) batchStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, ok, pending := c.batchResult(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown batch %q", id)
		return
	}
	writeJSON(w, http.StatusOK, BatchStatusPayload{ID: id, Done: pending == 0, Pending: pending, Result: res})
}

// result looks a cached result up across the fleet: the affinity worker
// cannot be derived from the hash alone (hashes cover measured
// parameters, warm keys do not), so admitted workers are asked in turn.
func (c *Coordinator) result(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	res, ok, err := c.ResultFleet(r.Context(), hash)
	if err != nil {
		proxyError(w, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no cached result for %s", hash)
		return
	}
	writeJSON(w, http.StatusOK, service.ResultPayload{Hash: hash, Result: res, Metrics: service.MetricsFor(res)})
}

func (c *Coordinator) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Health())
}

func (c *Coordinator) cluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Topology())
}

// register handles a worker heartbeat (POST /v1/cluster/register):
// unknown URLs join the fleet, known ones refresh their health, ejected
// ones are revived. Membership changes are persisted so the fleet
// survives coordinator restarts.
func (c *Coordinator) register(w http.ResponseWriter, r *http.Request) {
	var req service.RegisterRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid register request: %v", err)
		return
	}
	if strings.TrimSpace(req.URL) == "" {
		writeError(w, http.StatusBadRequest, "register: url required")
		return
	}
	info, changed, err := c.reg.Register(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if changed {
		if err := c.store.PutWorker(WorkerRecord{ID: info.ID, URL: info.URL, Lifecycle: info.Lifecycle}); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		c.log.Info("worker registered", "worker", info.ID, "url", info.URL,
			"lifecycle", info.Lifecycle)
	}
	writeJSON(w, http.StatusOK, service.RegisterResponse{
		ID:        info.ID,
		State:     string(info.State),
		Lifecycle: string(info.Lifecycle),
	})
}

// workerParam extracts the target worker (ID or URL) from an admin verb
// request body {"worker": "..."}.
func (c *Coordinator) workerParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req struct {
		Worker string `json:"worker"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return "", false
	}
	id, ok := c.reg.Resolve(req.Worker)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown worker %q", req.Worker)
		return "", false
	}
	return id, true
}

// lifecycleVerb implements cordon/uncordon: an immediate, reversible
// lifecycle flip. Cordoned workers take no new placements from the
// instant the verb returns; their in-flight jobs run on.
func (c *Coordinator) lifecycleVerb(lc Lifecycle) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, ok := c.workerParam(w, r)
		if !ok {
			return
		}
		info, err := c.reg.SetLifecycle(id, lc)
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		if err := c.store.PutWorker(WorkerRecord{ID: info.ID, URL: info.URL, Lifecycle: info.Lifecycle}); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		c.log.Info("worker lifecycle set", "worker", info.ID, "lifecycle", lc)
		writeJSON(w, http.StatusOK, info)
	}
}

// drain marks a worker draining (no new placements) and ejects it once
// its last coordinator-tracked in-flight job completes; with nothing in
// flight the ejection is immediate. Its warm-affinity keys remap down
// the ring sequence.
func (c *Coordinator) drain(w http.ResponseWriter, r *http.Request) {
	id, ok := c.workerParam(w, r)
	if !ok {
		return
	}
	info, err := c.reg.SetLifecycle(id, LifecycleDraining)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if err := c.store.PutWorker(WorkerRecord{ID: info.ID, URL: info.URL, Lifecycle: LifecycleDraining}); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	c.log.Info("worker draining", "worker", info.ID)
	c.mu.Lock()
	idle := c.inflight[id] == 0
	c.mu.Unlock()
	if idle {
		c.eject(id)
	}
	if cur, okc := c.reg.InfoFor(id); okc {
		info = cur
	}
	writeJSON(w, http.StatusOK, info)
}
