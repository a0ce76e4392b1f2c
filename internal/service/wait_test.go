package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bump/internal/chaos/faultserver"
	"bump/internal/sim"
	"bump/internal/wire"
)

// waitSubscribers counts the live progress subscriptions on a job: the
// test's own plus one per attached SSE or wire watch stream.
func waitSubscribers(p *Pool, id string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if j, ok := p.jobs[id]; ok {
		return len(j.subs)
	}
	return 0
}

// TestClientWaitFollowsPush: Wait rides the server's push stream, so it
// returns as soon as the pool marks the job done — not up to a poll
// interval later — over the wire watch and over SSE alike.
func TestClientWaitFollowsPush(t *testing.T) {
	for _, jsonOnly := range []bool{false, true} {
		name := "wire"
		if jsonOnly {
			name = "sse"
		}
		t.Run(name, func(t *testing.T) {
			pool := newTestPool(t, Options{Workers: 1})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ws := wire.Serve(l, NewWireHandler(NewPoolWireBackend(pool)))
			t.Cleanup(ws.Close)
			srv := httptest.NewServer(NewHandlerInfo(pool, ServerInfo{WireAddr: l.Addr().String()}))
			t.Cleanup(srv.Close)
			c := NewClient(srv.URL)
			c.DisableWire = jsonOnly
			t.Cleanup(c.Close)

			spec := specFixture()
			spec.MeasureCycles = 1_500_000 // long enough for Wait to attach mid-run
			st, err := c.Submit(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			// Timestamp the pool's terminal transition: it closes every
			// subscriber channel when it marks the job done.
			ch, cancel, err := pool.Subscribe(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			defer cancel()
			doneAt := make(chan time.Time, 1)
			go func() {
				for range ch {
				}
				doneAt <- time.Now()
			}()

			type waited struct {
				st  JobStatus
				err error
				at  time.Time
			}
			out := make(chan waited, 1)
			go func() {
				fin, err := c.Wait(context.Background(), st.ID)
				out <- waited{fin, err, time.Now()}
			}()
			for waitSubscribers(pool, st.ID) < 2 {
				select {
				case <-doneAt:
					t.Fatal("job finished before Wait attached a watch stream (Wait does not stream, or the spec is too short)")
				case <-time.After(time.Millisecond):
				}
			}
			w := <-out
			if w.err != nil || w.st.State != StateDone || w.st.Result == nil || w.st.ID != st.ID {
				t.Fatalf("Wait: %v, state %s", w.err, w.st.State)
			}
			if lag := w.at.Sub(<-doneAt); lag > 50*time.Millisecond {
				t.Fatalf("Wait returned %s after the pool marked the job done, want <= 50ms", lag)
			}
			if calls := c.WireStats().Calls; jsonOnly != (calls == 0) {
				t.Fatalf("%d wire calls with DisableWire=%v", calls, jsonOnly)
			}
		})
	}
}

// TestClientWaitRewatchesDroppedStream: a server that drops the event
// stream mid-job but still answers status calls is re-watched (after
// the back-off, not in a busy loop) until a stream delivers the
// terminal state.
func TestClientWaitRewatchesDroppedStream(t *testing.T) {
	var streams, jobs atomic.Int32
	c := faultServer(t, func(w http.ResponseWriter, r *http.Request, stop <-chan struct{}) {
		switch {
		case r.URL.Path == "/v1/healthz":
			fmt.Fprint(w, `{}`) // no wire listener advertised
		case strings.HasSuffix(r.URL.Path, "/events"):
			w.Header().Set("Content-Type", "text/event-stream")
			if streams.Add(1) < 3 {
				// Drop the stream after one progress event.
				fmt.Fprint(w, "event: progress\ndata: {}\n\n")
				return
			}
			fmt.Fprint(w, "event: done\ndata: {\"id\":\"j1\",\"state\":\"done\"}\n\n")
		default:
			jobs.Add(1)
			fmt.Fprint(w, `{"id":"j1","state":"running"}`)
		}
	})
	start := time.Now()
	st, err := c.Wait(context.Background(), "j1")
	if err != nil || st.State != StateDone || st.ID != "j1" {
		t.Fatalf("Wait: %v, %+v", err, st)
	}
	if n := streams.Load(); n != 3 {
		t.Fatalf("%d event streams, want 3 (two dropped, one terminal)", n)
	}
	if n := jobs.Load(); n != 2 {
		t.Fatalf("%d status calls, want one per dropped stream (2)", n)
	}
	if elapsed := time.Since(start); elapsed < 2*waitRewatchBackoff {
		t.Fatalf("re-watched twice in %s, faster than the %s back-off", elapsed, waitRewatchBackoff)
	}
}

// TestClientWaitHungServerBound: against a server that accepts and
// never answers, Wait fails after one stream attempt and one status
// call, each bounded by RequestTimeout — about twice RequestTimeout,
// the bound the coordinator's failover relies on.
func TestClientWaitHungServerBound(t *testing.T) {
	for _, jsonOnly := range []bool{false, true} {
		c := faultServer(t, faultserver.Hung())
		c.RequestTimeout = 200 * time.Millisecond
		c.DisableWire = jsonOnly
		start := time.Now()
		_, err := c.Wait(context.Background(), "j1")
		elapsed := time.Since(start)
		if err == nil || errors.Is(err, context.Canceled) {
			t.Fatalf("DisableWire=%v: Wait against a hung server: %v", jsonOnly, err)
		}
		// 2×RequestTimeout plus scheduling slack.
		if elapsed > 2*c.RequestTimeout+150*time.Millisecond {
			t.Fatalf("DisableWire=%v: Wait failed after %s, want about 2x%s", jsonOnly, elapsed, c.RequestTimeout)
		}
	}
}

// silentWatch is a wire backend whose watch writes nothing and returns
// only when its context ends, like a coordinator watching a job that
// awaits placement.
type silentWatch struct {
	WireBackend
	started, ended chan struct{}
}

func (b *silentWatch) WireWatch(ctx context.Context, id string, onProgress func(sim.Progress)) (JobStatus, error) {
	b.started <- struct{}{}
	<-ctx.Done()
	b.ended <- struct{}{}
	return JobStatus{}, ctx.Err()
}

// TestWireWatchEndsWithConnection: a wire request lives only as long as
// its connection. A watch that writes nothing is canceled when its
// client hangs up (as every Wait attempt cut off at RequestTimeout
// does), and Server.Close returns promptly while one is in flight.
func TestWireWatchEndsWithConnection(t *testing.T) {
	b := &silentWatch{started: make(chan struct{}, 1), ended: make(chan struct{}, 1)}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.Serve(l, NewWireHandler(b))
	p := wire.NewPool(l.Addr().String())
	defer p.Close()
	watch := func() *wire.Conn {
		t.Helper()
		c, _, err := p.Get(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WriteFrame(wmWatch, encodeMsg(wireRef{Ref: "j00000001"})); err != nil {
			t.Fatal(err)
		}
		select {
		case <-b.started:
		case <-time.After(5 * time.Second):
			t.Fatal("watch never reached the backend")
		}
		return c
	}
	ended := func(what string) {
		t.Helper()
		select {
		case <-b.ended:
		case <-time.After(5 * time.Second):
			t.Fatalf("watch outlived %s", what)
		}
	}

	c := watch()
	c.Close()
	ended("its client")

	c = watch()
	defer c.Close()
	closed := make(chan struct{})
	go func() {
		ws.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close blocked on an in-flight watch")
	}
	ended("the server")
}
