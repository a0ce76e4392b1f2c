package cluster

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bump/internal/service"
	"bump/internal/sim"
	"bump/internal/wire"
)

// countingWire counts the wire calls clients make on a coordinator.
type countingWire struct {
	service.WireBackend
	calls atomic.Int64
}

func (b *countingWire) WireJob(ctx context.Context, id string) (service.JobStatus, error) {
	b.calls.Add(1)
	return b.WireBackend.WireJob(ctx, id)
}

func (b *countingWire) WireWatch(ctx context.Context, id string, onProgress func(sim.Progress)) (service.JobStatus, error) {
	b.calls.Add(1)
	return b.WireBackend.WireWatch(ctx, id, onProgress)
}

// TestCoordinatorWaitUnplacedIsBounded: a job whose only worker died
// sits unplaced at the coordinator, which answers its SSE stream with
// 503 until a worker is routable. A client's Wait on it must re-watch
// on a fixed back-off — a bounded number of requests per second, over
// SSE and over the wire — never a busy loop.
func TestCoordinatorWaitUnplacedIsBounded(t *testing.T) {
	fleet := newTestFleet(t, 1, service.Options{Workers: 1})
	coord := newTestCoordinator(t, fleet)
	var httpReqs atomic.Int64
	api := coord.Handler()
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpReqs.Add(1)
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cw := &countingWire{WireBackend: coord}
	ws := wire.Serve(l, service.NewWireHandler(cw))
	// Close in bumpctl's order: the wire listener first, while the
	// coordinator would still hold a watch on the unplaced job open.
	t.Cleanup(func() {
		ws.Close()
		coord.Close()
	})
	coord.SetWireAddr(l.Addr().String())

	submitter := service.NewClient(front.URL)
	t.Cleanup(submitter.Close)
	spec := sweepSpec("web-search", 0)
	spec.MeasureCycles = 200_000_000
	st, err := submitter.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the only worker: the coordinator fails the job over and,
	// with nothing routable, keeps it unplaced.
	fleet[0].srv.CloseClientConnections()
	fleet[0].srv.Close()
	deadline := time.After(10 * time.Second)
	for {
		if rec, ok := coord.Store().Job(st.ID); ok && rec.Worker == "" && !rec.State.Terminal() {
			break
		}
		select {
		case <-deadline:
			t.Fatal("job never returned to the unplaced state after its worker died")
		case <-time.After(5 * time.Millisecond):
		}
	}
	fleet[0].pool.Close() // nothing watches the orphaned run any more

	const window = time.Second
	for _, jsonOnly := range []bool{true, false} {
		c := service.NewClient(front.URL)
		c.DisableWire = jsonOnly
		// Short attempts, so the wire watch (which the coordinator holds
		// open while the job is unplaced) re-attaches within the window.
		c.RequestTimeout = 300 * time.Millisecond
		before := httpReqs.Load() + cw.calls.Load()
		ctx, cancel := context.WithTimeout(context.Background(), window)
		_, err := c.Wait(ctx, st.ID)
		cancel()
		c.Close()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("DisableWire=%v: Wait on an unplaced job: %v, want the context deadline", jsonOnly, err)
		}
		// One stream and one status call per 250ms back-off (or per
		// 300ms wire attempt) is about 8 a second; a busy loop would
		// issue thousands.
		n := httpReqs.Load() + cw.calls.Load() - before
		if n < 2 || n > 20 {
			t.Fatalf("DisableWire=%v: Wait issued %d requests in %s, want 2..20", jsonOnly, n, window)
		}
		t.Logf("DisableWire=%v: %d requests in %s", jsonOnly, n, window)
	}
	if rec, ok := coord.Store().Job(st.ID); !ok || rec.Worker != "" || rec.State.Terminal() {
		t.Fatalf("job left the unplaced state during the test: %+v", rec)
	}
}
