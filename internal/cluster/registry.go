package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"bump/internal/service"
	"bump/internal/snapshot"
)

// WorkerState is a worker's health/admission status in the registry.
type WorkerState string

const (
	// WorkerUnknown: not yet successfully probed; never routed to.
	WorkerUnknown WorkerState = "unknown"
	// WorkerUp: healthy and routable.
	WorkerUp WorkerState = "up"
	// WorkerDown: ejected after consecutive probe/request failures;
	// re-probed with exponential backoff and readmitted on success (a
	// heartbeat registration readmits immediately).
	WorkerDown WorkerState = "down"
	// WorkerIncompatible: healthy but speaking a different snapshot
	// format version. Warm checkpoints and cached results keyed under
	// one format version are meaningless under another, so such workers
	// are never routed to; they are still probed, so an in-place upgrade
	// readmits them.
	WorkerIncompatible WorkerState = "incompatible"
)

// Lifecycle is a worker's administrative state, orthogonal to health: a
// worker takes new placements only when it is both healthy (WorkerUp)
// and LifecycleActive.
type Lifecycle string

const (
	// LifecycleActive: normal service.
	LifecycleActive Lifecycle = "active"
	// LifecycleCordoned: no new placements; in-flight jobs run on.
	// Reversible via uncordon.
	LifecycleCordoned Lifecycle = "cordoned"
	// LifecycleDraining: no new placements; ejected automatically once
	// the coordinator's last in-flight job on it completes.
	LifecycleDraining Lifecycle = "draining"
	// LifecycleEjected: removed from service by a completed drain. Its
	// warm-affinity keys remap down the ring sequence. A fresh
	// heartbeat registration revives it to LifecycleActive.
	LifecycleEjected Lifecycle = "ejected"
)

// routable reports whether the lifecycle admits new placements.
func (l Lifecycle) routable() bool { return l == "" || l == LifecycleActive }

// RegistryOptions tunes health probing and ejection. Zero values pick
// production defaults.
type RegistryOptions struct {
	// ProbeInterval paces the periodic /v1/healthz round (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe request (default: ProbeInterval).
	ProbeTimeout time.Duration
	// FailAfter is the consecutive-failure count that ejects a worker
	// (default 3). Router-reported request failures count like probe
	// failures, so a dead worker is ejected by the traffic it drops, not
	// only by the next probe round.
	FailAfter int
	// BackoffBase/BackoffMax shape the readmission probe backoff of a
	// down worker: base doubles per failed readmission probe up to max
	// (defaults 1s and 30s). Each wait is jittered by up to +25% so a
	// fleet-wide blip does not synchronize every worker's readmission
	// probe into one thundering herd.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// FormatVersion is the snapshot format this coordinator requires of
	// its workers (default snapshot.FormatVersion — the version this
	// binary was built with).
	FormatVersion int
	// RequestTimeout configures the per-worker service.Client
	// (default: the client default).
	RequestTimeout time.Duration
	// DisableWire pins every per-worker client to HTTP/JSON even against
	// workers that advertise a wire listener (cross-protocol comparison
	// runs, debugging).
	DisableWire bool
}

func (o RegistryOptions) withDefaults() RegistryOptions {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		// Floor the default at 2s: a busy worker (every core simulating)
		// can take tens of milliseconds to answer, and a short probe
		// timeout would misread load as death.
		o.ProbeTimeout = max(o.ProbeInterval, 2*time.Second)
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = time.Second
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 30 * time.Second
	}
	if o.FormatVersion == 0 {
		o.FormatVersion = snapshot.FormatVersion
	}
	return o
}

// Worker is one registered bumpd backend.
type Worker struct {
	// ID is the stable short name ("w0", "w1", …) used in namespaced
	// job IDs; URL is the backend base URL and the worker's ring
	// identity.
	ID  string
	URL string
	// Client is the configured API client for this worker.
	Client *service.Client

	// Mutable probe/lifecycle state, guarded by the registry mutex.
	state     WorkerState
	lifecycle Lifecycle
	fails     int
	backoff   time.Duration
	retryAt   time.Time
	lastErr   string
	health    service.HealthPayload
	probed    time.Time
	beat      time.Time // last heartbeat registration
	// wireAddr is the worker's advertised binary fast-path listener;
	// checkpoints the warm-checkpoint digests it can serve. Both refresh
	// from probes and heartbeats.
	wireAddr    string
	checkpoints map[string]struct{}
}

// WorkerInfo is a worker's exported status snapshot (served by
// /v1/cluster).
type WorkerInfo struct {
	ID    string      `json:"id"`
	URL   string      `json:"url"`
	State WorkerState `json:"state"`
	// Lifecycle is the administrative state
	// (active|cordoned|draining|ejected).
	Lifecycle Lifecycle `json:"lifecycle"`
	// Version and Uptime echo the worker's last successful health probe.
	Version int     `json:"version,omitempty"`
	Uptime  float64 `json:"uptime_s,omitempty"`
	// Fails is the current consecutive-failure count; LastError the most
	// recent probe or request error.
	Fails    int     `json:"fails,omitempty"`
	LastErr  string  `json:"last_error,omitempty"`
	ProbeAge float64 `json:"probe_age_s,omitempty"`
	// HeartbeatAge is seconds since the last self-registration
	// heartbeat (absent for workers that never registered themselves).
	HeartbeatAge float64 `json:"heartbeat_age_s,omitempty"`
	// WireAddr is the worker's advertised binary fast-path listener;
	// Checkpoints counts the warm-checkpoint digests it advertises.
	WireAddr    string `json:"wire_addr,omitempty"`
	Checkpoints int    `json:"checkpoints,omitempty"`
	// Stats is the worker pool's statistics at the last probe — per-
	// worker warm-hit and cache counters live here.
	Stats service.PoolStats `json:"stats"`
}

// Registry tracks the worker fleet. Membership is dynamic: workers are
// seeded from a static list and/or register themselves via heartbeats
// (POST /v1/cluster/register). Each worker's /v1/healthz is probed
// periodically; healthy matching-version workers are admitted, failing
// ones ejected after FailAfter consecutive failures and re-probed with
// jittered exponential backoff until they recover.
type Registry struct {
	opts RegistryOptions

	mu      sync.Mutex
	workers []*Worker
	byID    map[string]*Worker
	byURL   map[string]*Worker
	ring    *Ring
	nextID  int

	stop chan struct{}
	done chan struct{}
}

// NewRegistry builds a registry over the (possibly empty) seed worker
// URLs and starts the probe loop. Seeded workers start in WorkerUnknown
// and are not routable until their first successful probe — call
// ProbeOnce to admit the initial fleet synchronously. An empty seed
// list is valid: workers join via heartbeat self-registration.
func NewRegistry(urls []string, opts RegistryOptions) (*Registry, error) {
	opts = opts.withDefaults()
	r := &Registry{
		opts:  opts,
		byID:  make(map[string]*Worker),
		byURL: make(map[string]*Worker),
		ring:  NewRing(nil, 0),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i, url := range urls {
		if strings.TrimSpace(url) == "" {
			return nil, fmt.Errorf("cluster: empty worker URL at position %d", i)
		}
		if _, err := r.Add(url, ""); err != nil {
			return nil, err
		}
	}
	go r.probeLoop()
	return r, nil
}

// Add registers a worker URL under the given ID (minted when empty) in
// state WorkerUnknown, rebuilding the ring. The ring is keyed by worker
// *URL*, the worker's stable identity: a bouncing worker does not
// reshuffle its neighbours' keys, its own keys come home when it
// readmits, and restarting the coordinator with a reordered or shrunk
// fleet keeps every surviving worker's warm checkpoints addressable
// (positional IDs like "w0" would remap nearly all keys on any
// fleet-list edit).
func (r *Registry) Add(url, id string) (*Worker, error) {
	url = strings.TrimSpace(strings.TrimRight(url, "/"))
	if url == "" {
		return nil, fmt.Errorf("cluster: empty worker URL")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byURL[url]; dup {
		return nil, fmt.Errorf("cluster: duplicate worker URL %s", url)
	}
	if id == "" {
		id = fmt.Sprintf("w%d", r.nextID)
	}
	if _, dup := r.byID[id]; dup {
		return nil, fmt.Errorf("cluster: duplicate worker ID %s", id)
	}
	var n int
	if _, err := fmt.Sscanf(id, "w%d", &n); err == nil && n >= r.nextID {
		r.nextID = n + 1
	}
	c := service.NewClient(url)
	c.RequestTimeout = r.opts.RequestTimeout
	c.DisableWire = r.opts.DisableWire
	w := &Worker{
		ID:        id,
		URL:       url,
		Client:    c,
		state:     WorkerUnknown,
		lifecycle: LifecycleActive,
	}
	r.workers = append(r.workers, w)
	r.byID[w.ID] = w
	r.byURL[w.URL] = w
	r.rebuildRingLocked()
	return w, nil
}

// rebuildRingLocked rebuilds the consistent-hash ring over the whole
// fleet (lifecycle filtering happens at pick time via the Sequence
// walk, so an ejected worker's keys remap to its ring successors
// without disturbing anyone else's).
func (r *Registry) rebuildRingLocked() {
	urls := make([]string, len(r.workers))
	for i, w := range r.workers {
		urls[i] = w.URL
	}
	r.ring = NewRing(urls, 0)
}

// Register handles one heartbeat self-registration: an unknown URL
// joins the fleet immediately (admitted without waiting for a probe
// round — the heartbeat itself is evidence of life), a known one has
// its health refreshed, and an ejected one is revived to
// LifecycleActive. changed reports a membership or lifecycle change the
// caller should persist.
func (r *Registry) Register(req service.RegisterRequest) (info WorkerInfo, changed bool, err error) {
	url := strings.TrimSpace(strings.TrimRight(req.URL, "/"))
	r.mu.Lock()
	w, ok := r.byURL[url]
	r.mu.Unlock()
	if !ok {
		if w, err = r.Add(url, ""); err != nil {
			// Racing registrations of the same URL: the loser reads the
			// winner's entry.
			r.mu.Lock()
			w, ok = r.byURL[url]
			r.mu.Unlock()
			if !ok {
				return WorkerInfo{}, false, err
			}
		} else {
			changed = true
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	w.beat = now
	w.probed = now
	w.fails = 0
	w.backoff = 0
	w.lastErr = ""
	w.health.Version = req.Version
	w.setAdvertsLocked(req.WireAddr, req.Checkpoints)
	if req.Version == r.opts.FormatVersion {
		w.state = WorkerUp
	} else {
		w.state = WorkerIncompatible
		w.lastErr = fmt.Sprintf("snapshot format version %d, coordinator requires %d", req.Version, r.opts.FormatVersion)
	}
	if w.lifecycle == LifecycleEjected {
		w.lifecycle = LifecycleActive
		changed = true
	}
	return r.infoLocked(w, now), changed, nil
}

// Close stops the probe loop.
func (r *Registry) Close() {
	r.mu.Lock()
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.mu.Unlock()
	<-r.done
}

// Ring returns the fleet's current consistent-hash ring (immutable;
// rebuilt on membership changes).
func (r *Registry) Ring() *Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

// Worker resolves a worker ID.
func (r *Registry) Worker(id string) (*Worker, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.byID[id]
	return w, ok
}

// WorkerByURL resolves a worker URL.
func (r *Registry) WorkerByURL(url string) (*Worker, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.byURL[url]
	return w, ok
}

// Workers returns the fleet in registration order.
func (r *Registry) Workers() []*Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Worker(nil), r.workers...)
}

// Up reports whether a worker is currently health-admitted (it may
// still be unroutable by lifecycle; see Routable).
func (r *Registry) Up(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.byID[id]
	return ok && w.state == WorkerUp
}

// Routable reports whether a worker takes new placements: healthy AND
// lifecycle-active.
func (r *Registry) Routable(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.byID[id]
	return ok && w.state == WorkerUp && w.lifecycle.routable()
}

// UpCount returns the number of health-admitted workers.
func (r *Registry) UpCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.workers {
		if w.state == WorkerUp {
			n++
		}
	}
	return n
}

// Lifecycle returns a worker's administrative state.
func (r *Registry) Lifecycle(id string) (Lifecycle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.byID[id]
	if !ok {
		return "", false
	}
	return w.lifecycle, true
}

// SetLifecycle moves a worker to an administrative state, returning its
// updated info.
func (r *Registry) SetLifecycle(id string, lc Lifecycle) (WorkerInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.byID[id]
	if !ok {
		return WorkerInfo{}, fmt.Errorf("cluster: unknown worker %q", id)
	}
	w.lifecycle = lc
	return r.infoLocked(w, time.Now()), nil
}

// Resolve maps a worker ID or URL to its ID.
func (r *Registry) Resolve(idOrURL string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.byID[idOrURL]; ok {
		return w.ID, true
	}
	if w, ok := r.byURL[strings.TrimRight(idOrURL, "/")]; ok {
		return w.ID, true
	}
	return "", false
}

func (r *Registry) infoLocked(w *Worker, now time.Time) WorkerInfo {
	info := WorkerInfo{
		ID:        w.ID,
		URL:       w.URL,
		State:     w.state,
		Lifecycle: w.lifecycle,
		Fails:     w.fails,
		LastErr:   w.lastErr,
		Stats:     w.health.Stats,
		Version:   w.health.Version,
		Uptime:    w.health.Uptime,
	}
	if info.Lifecycle == "" {
		info.Lifecycle = LifecycleActive
	}
	if !w.probed.IsZero() {
		info.ProbeAge = now.Sub(w.probed).Seconds()
	}
	if !w.beat.IsZero() {
		info.HeartbeatAge = now.Sub(w.beat).Seconds()
	}
	info.WireAddr = w.wireAddr
	info.Checkpoints = len(w.checkpoints)
	return info
}

// setAdvertsLocked refreshes a worker's wire-listener and checkpoint
// advertisements (from a probe or heartbeat), under the registry mutex.
func (w *Worker) setAdvertsLocked(wireAddr string, checkpoints []string) {
	w.wireAddr = wireAddr
	if len(checkpoints) == 0 {
		w.checkpoints = nil
		return
	}
	set := make(map[string]struct{}, len(checkpoints))
	for _, k := range checkpoints {
		set[k] = struct{}{}
	}
	w.checkpoints = set
}

// Holds reports whether a worker advertises checkpoint digest key.
func (r *Registry) Holds(id, key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.byID[id]
	if !ok {
		return false
	}
	_, held := w.checkpoints[key]
	return held
}

// MarkHolds records that a worker now serves checkpoint digest key
// (after a successful transfer), ahead of its next heartbeat/probe
// re-advertising it.
func (r *Registry) MarkHolds(id, key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.byID[id]
	if !ok {
		return
	}
	if w.checkpoints == nil {
		w.checkpoints = make(map[string]struct{})
	}
	w.checkpoints[key] = struct{}{}
}

// HoldersOf returns the base URLs of health-admitted workers
// advertising checkpoint digest key, excluding worker ID exclude.
// Lifecycle is ignored: a cordoned or draining worker can still serve a
// checkpoint transfer.
func (r *Registry) HoldersOf(key, exclude string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var urls []string
	for _, w := range r.workers {
		if w.ID == exclude || w.state != WorkerUp {
			continue
		}
		if _, held := w.checkpoints[key]; held {
			urls = append(urls, w.URL)
		}
	}
	return urls
}

// CheckpointKeys returns every checkpoint digest advertised by any
// health-admitted worker, sorted.
func (r *Registry) CheckpointKeys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := make(map[string]struct{})
	for _, w := range r.workers {
		if w.state != WorkerUp {
			continue
		}
		for k := range w.checkpoints {
			set[k] = struct{}{}
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// InfoFor snapshots one worker's status.
func (r *Registry) InfoFor(id string) (WorkerInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.byID[id]
	if !ok {
		return WorkerInfo{}, false
	}
	return r.infoLocked(w, time.Now()), true
}

// Info snapshots every worker's status in registration order.
func (r *Registry) Info() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	infos := make([]WorkerInfo, len(r.workers))
	for i, w := range r.workers {
		infos[i] = r.infoLocked(w, now)
	}
	return infos
}

// ReportFailure records a request-level failure against a worker (the
// router calls this when a submit/wait fails): it counts toward the
// same consecutive-failure ejection threshold as a failed probe, so
// traffic ejects a dead worker faster than the probe cadence would.
func (r *Registry) ReportFailure(id string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.byID[id]; ok {
		r.recordFailureLocked(w, err)
	}
}

// probeLoop drives the periodic health round until Close.
func (r *Registry) probeLoop() {
	defer close(r.done)
	t := time.NewTicker(r.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.ProbeOnce(context.Background())
		}
	}
}

// ProbeOnce runs one probe round: every due worker is health-checked
// concurrently and its admission state updated. Down workers are only
// probed once their backoff expires; ejected workers are skipped (a
// heartbeat revives them).
func (r *Registry) ProbeOnce(ctx context.Context) {
	r.mu.Lock()
	now := time.Now()
	var due []*Worker
	for _, w := range r.workers {
		if w.lifecycle == LifecycleEjected {
			continue
		}
		if w.state == WorkerDown && now.Before(w.retryAt) {
			continue
		}
		due = append(due, w)
	}
	r.mu.Unlock()

	var wg sync.WaitGroup
	for _, w := range due {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, r.opts.ProbeTimeout)
			defer cancel()
			h, err := w.Client.Health(pctx)
			r.mu.Lock()
			defer r.mu.Unlock()
			w.probed = time.Now()
			if err != nil {
				r.recordFailureLocked(w, err)
				return
			}
			w.health = h
			w.setAdvertsLocked(h.WireAddr, h.Checkpoints)
			w.fails = 0
			w.backoff = 0
			w.lastErr = ""
			if h.Version != r.opts.FormatVersion {
				w.state = WorkerIncompatible
				w.lastErr = fmt.Sprintf("snapshot format version %d, coordinator requires %d", h.Version, r.opts.FormatVersion)
				return
			}
			w.state = WorkerUp
		}(w)
	}
	wg.Wait()
}

// recordFailureLocked applies one failure: bump the consecutive count,
// eject at the threshold, and push the readmission probe out by the
// (doubling) backoff plus a random jitter of up to +25%. Without the
// jitter a fleet-wide blip (switch reboot, coordinated deploy) leaves
// every worker on the same backoff schedule and each retry round
// arrives as one synchronized thundering herd of readmission probes.
func (r *Registry) recordFailureLocked(w *Worker, err error) {
	w.fails++
	w.lastErr = err.Error()
	if w.state == WorkerDown || w.fails >= r.opts.FailAfter {
		w.state = WorkerDown
		if w.backoff == 0 {
			w.backoff = r.opts.BackoffBase
		} else if w.backoff < r.opts.BackoffMax {
			w.backoff = min(2*w.backoff, r.opts.BackoffMax)
		}
		jitter := time.Duration(rand.Int63n(int64(w.backoff)/4 + 1))
		w.retryAt = time.Now().Add(w.backoff + jitter)
	}
}
