package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"bump/internal/blob"
	"bump/internal/cluster"
	"bump/internal/obs"
	"bump/internal/service"
	"bump/internal/sim"
	"bump/internal/wire"
)

// workerAddrs are the fixed loopback listen addresses of the benchmark's
// bumpd workers. The coordinator's consistent-hash ring is keyed by
// worker URL, so a fixed URL gives every run the same warm-key placement;
// an ephemeral port would reshuffle it run to run. The ports sit below
// the Linux ephemeral range so outgoing connections never hold them.
var workerAddrs = []string{"127.0.0.1:27311", "127.0.0.1:27312"}

// daemon is one in-process bumpd: a pool behind the HTTP/JSON handler
// and the binary wire listener, built as cmd/bumpd builds them.
type daemon struct {
	URL    string
	Pool   *service.Pool
	Tracer *obs.Tracer
	Blob   *blob.Store
	// Requests counts HTTP requests served, Polls the job-status ones
	// among them; WireJobs counts job-status calls served over the wire
	// protocol.
	Requests atomic.Int64
	Polls    atomic.Int64
	WireJobs atomic.Int64

	http *http.Server
	wire *wire.Server
	done chan struct{}
}

// daemonOptions are the pool settings a workload changes from bumpd's
// defaults.
type daemonOptions struct {
	addr    string // HTTP listen address; "" picks a free loopback port
	workers int    // concurrent simulations (0 = GOMAXPROCS, as bumpd)
	warmDir string // blob-backed warm store directory ("" = warm starts off)
	traced  bool   // record per-job spans
}

// countingBackend counts job-status calls on the wire path (a client's
// Wait polls through it).
type countingBackend struct {
	service.WireBackend
	d *daemon
}

func (b countingBackend) WireJob(ctx context.Context, id string) (service.JobStatus, error) {
	b.d.WireJobs.Add(1)
	return b.WireBackend.WireJob(ctx, id)
}

// startDaemon builds and serves one bumpd with cmd/bumpd's defaults
// (wire listener on, sequential engine, 256-entry result cache).
func startDaemon(o daemonOptions) (*daemon, error) {
	d := &daemon{done: make(chan struct{})}
	opts := service.Options{
		Workers:        o.workers,
		CacheEntries:   256,
		RetainJobs:     4096,
		DefaultTimeout: 10 * time.Minute,
		WarmEntries:    64,
		Metrics:        obs.NewRegistry(),
	}
	if o.traced {
		d.Tracer = obs.NewTracer(0)
		opts.Tracer = d.Tracer
	}
	if o.warmDir != "" {
		bs, err := blob.Open(o.warmDir, blob.DefaultCapacity)
		if err != nil {
			return nil, fmt.Errorf("open checkpoint store: %w", err)
		}
		d.Blob = bs
		opts.WarmStarts = true
		opts.WarmBackend = bs
	}
	d.Pool = service.NewPool(opts)

	addr := o.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	hl, err := net.Listen("tcp", addr)
	if err != nil {
		d.closePartial()
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		d.closePartial()
		return nil, fmt.Errorf("wire listen: %w", err)
	}
	d.wire = wire.Serve(wl, service.NewWireHandler(countingBackend{service.NewPoolWireBackend(d.Pool), d}))
	api := service.NewHandlerInfo(d.Pool, service.ServerInfo{
		WireAddr: wl.Addr().String(),
		Metrics:  opts.Metrics,
		Tracer:   d.Tracer,
	})
	d.http = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			d.Requests.Add(1)
			if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
				d.Polls.Add(1)
			}
			api.ServeHTTP(w, r)
		}),
		ReadTimeout: 30 * time.Second,
	}
	d.URL = "http://" + hl.Addr().String()
	go func() {
		defer close(d.done)
		d.http.Serve(hl)
	}()
	return d, nil
}

func (d *daemon) closePartial() {
	d.Pool.Close()
	if d.Blob != nil {
		d.Blob.Close()
	}
}

// Close stops the listeners and the pool and waits for the HTTP serve
// loop to return.
func (d *daemon) Close() {
	d.http.Close()
	<-d.done
	d.wire.Close()
	d.closePartial()
}

// fleet is an in-process bumpctl coordinator over in-process bumpd
// workers at the fixed workerAddrs, each with a blob-backed warm store
// (bumpd -warm-dir) under dir.
type fleet struct {
	Workers []*daemon
	Coord   *cluster.Coordinator
	Tracer  *obs.Tracer
	URL     string
	Client  *service.Client
	// Requests counts HTTP requests the coordinator served.
	Requests atomic.Int64

	dir  string
	http *http.Server
	wire *wire.Server
	done chan struct{}
}

// startFleet builds the fleet. Each worker runs one simulation at a time,
// so the fleet as a whole never runs more than len(workerAddrs).
func startFleet(dir string, traced bool) (_ *fleet, err error) {
	f := &fleet{dir: dir}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var urls []string
	for i, addr := range workerAddrs {
		d, err := startDaemon(daemonOptions{
			addr:    addr,
			workers: 1,
			warmDir: filepath.Join(dir, fmt.Sprintf("w%d", i)),
			traced:  traced,
		})
		if err != nil {
			return nil, err
		}
		f.Workers = append(f.Workers, d)
		urls = append(urls, d.URL)
	}
	opts := cluster.Options{Workers: urls, Metrics: obs.NewRegistry()}
	if traced {
		f.Tracer = obs.NewTracer(0)
		opts.Tracer = f.Tracer
	}
	f.Coord, err = cluster.New(context.Background(), opts)
	if err != nil {
		return nil, err
	}
	if top := f.Coord.Topology(); top.Up != len(workerAddrs) {
		return nil, fmt.Errorf("fleet: %d of %d workers up", top.Up, len(workerAddrs))
	}

	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.wire = wire.Serve(wl, service.NewWireHandler(f.Coord))
	f.Coord.SetWireAddr(wl.Addr().String())
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	api := f.Coord.Handler()
	f.http = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			f.Requests.Add(1)
			api.ServeHTTP(w, r)
		}),
		ReadTimeout: 30 * time.Second,
	}
	f.done = make(chan struct{})
	go func() {
		defer close(f.done)
		f.http.Serve(hl)
	}()
	f.URL = "http://" + hl.Addr().String()
	f.Client = service.NewClient(f.URL)
	return f, nil
}

// Close tears the fleet down in reverse order and removes its directory.
func (f *fleet) Close() {
	if f.Client != nil {
		f.Client.Close()
	}
	if f.http != nil {
		f.http.Close()
		<-f.done
	}
	if f.wire != nil {
		f.wire.Close()
	}
	if f.Coord != nil {
		f.Coord.Close()
	}
	for _, d := range f.Workers {
		d.Close()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// warmStats sums the workers' warm-store counters.
func (f *fleet) warmStats() sim.WarmStats {
	var t sim.WarmStats
	for _, d := range f.Workers {
		w := d.Pool.Stats().Warm
		t.Hits += w.Hits
		t.Misses += w.Misses
		t.WarmupCyclesSimulated += w.WarmupCyclesSimulated
		t.WarmupCyclesReused += w.WarmupCyclesReused
		t.Installed += w.Installed
		t.ForkHits += w.ForkHits
		t.ForkMisses += w.ForkMisses
		t.TrunkCyclesSimulated += w.TrunkCyclesSimulated
		t.BranchCyclesSimulated += w.BranchCyclesSimulated
		t.ForkCyclesReused += w.ForkCyclesReused
	}
	return t
}

// replicatedBytes is the checkpoint bytes the workers' blob stores hold
// beyond one copy of each distinct checkpoint: what replication and
// failover prefetch copied between workers.
func (f *fleet) replicatedBytes() float64 {
	var held int64
	distinct := make(map[string]int64)
	for _, d := range f.Workers {
		for _, k := range d.Blob.Keys() {
			data, ok := d.Blob.Get(k)
			if !ok {
				continue
			}
			held += int64(len(data))
			distinct[k] = int64(len(data))
		}
	}
	for _, n := range distinct {
		held -= n
	}
	return float64(held)
}
