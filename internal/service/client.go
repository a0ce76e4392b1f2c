package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"bump/internal/sim"
)

// Client talks to a bumpd (or bumpctl) server over the /v1 API. Every
// call takes a context and is additionally bounded by RequestTimeout,
// so a hung server can never block a caller indefinitely — the failure
// surfaces as an error carrying the worker's identity and the cluster
// layer routes around it.
type Client struct {
	base string
	http *http.Client
	// RequestTimeout bounds each non-streaming HTTP call (default 30s)
	// and each of Wait's stream attempts. Other streaming calls (Events,
	// Watch, Batch) are bounded by their context only: a progress stream
	// legitimately outlives any fixed request budget.
	RequestTimeout time.Duration
	// WireAddr pins the server's binary fast-path address ("host:port";
	// an empty host is filled from the base URL). When empty the client
	// discovers it from /v1/healthz on first use.
	WireAddr string
	// DisableWire forces every call onto the HTTP/JSON slow path.
	DisableWire bool

	wire wireState
}

// NewClient returns a client for a server base URL (e.g.
// "http://localhost:8344").
//
// Hot calls (Submit, Job, ResultByHash, Batch, Watch) prefer the
// server's binary wire protocol on persistent pooled connections,
// negotiated at first use and falling back to HTTP/JSON transparently
// — against servers without a wire listener, after transport faults,
// and on wire format-version skew. Both paths return byte-identical
// results.
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		// No http.Client.Timeout: it would sever SSE streams mid-job.
		// Non-streaming calls get per-request context deadlines instead.
		// The transport is shared process-wide for keep-alive reuse.
		http: &http.Client{Transport: sharedTransport},
	}
}

// Close releases the client's pooled wire connections. Safe to skip for
// short-lived clients; idle connections also die with the process.
func (c *Client) Close() { c.closeWire() }

// Base returns the server base URL — the worker's identity in cluster
// topologies.
func (c *Client) Base() string { return c.base }

func (c *Client) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return 30 * time.Second
}

// APIError is a non-2xx server response; Code carries the HTTP status
// so callers can branch on it (e.g. 404 = not found) and Worker names
// the server that produced it, so cluster failover can attribute the
// failure to the right backend.
type APIError struct {
	Code    int
	Message string
	Worker  string
}

func (e *APIError) Error() string {
	if e.Worker != "" {
		return fmt.Sprintf("service: %s returned %d: %s", e.Worker, e.Code, e.Message)
	}
	return fmt.Sprintf("service: server returned %d: %s", e.Code, e.Message)
}

// doJSON issues a request bounded by ctx plus RequestTimeout and
// decodes the JSON response into out (when non-nil). hdr is optional
// extra header key/value pairs.
func (c *Client) doJSON(ctx context.Context, method, url string, body []byte, out any, hdr ...string) error {
	ctx, cancel := context.WithTimeout(ctx, c.requestTimeout())
	defer cancel()
	ctx = traceConns(ctx)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("service: %s %s: %w", c.base, method, err)
	}
	defer resp.Body.Close()
	// 64MB matches the server-side batch request bound: a full
	// MaxBatchPoints aggregate with per-point results must fit.
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("service: %s: read response: %w", c.base, err)
	}
	if resp.StatusCode >= 400 {
		return c.apiError(resp.StatusCode, resp.Status, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("service: %s: decode response: %w", c.base, err)
		}
	}
	return nil
}

// apiError builds an APIError from a non-2xx response, tolerating
// non-JSON bodies (proxies, panics) by falling back to the HTTP status.
func (c *Client) apiError(code int, status string, body []byte) *APIError {
	apiErr := &APIError{Code: code, Message: status, Worker: c.base}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		apiErr.Message = e.Error
	}
	return apiErr
}

// Submit posts a job spec and returns the server's status snapshot
// (which may already be done on a cache hit).
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	if st, handled, err := c.wireSubmit(ctx, spec); handled {
		return st, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	// The spec body already carries trace_id; the header duplicates it
	// for intermediaries that route on headers without parsing bodies.
	var hdr []string
	if spec.TraceID != "" {
		hdr = []string{TraceHeader, spec.TraceID}
	}
	var p JobPayload
	if err := c.doJSON(ctx, http.MethodPost, c.base+"/v1/jobs", body, &p, hdr...); err != nil {
		return JobStatus{}, err
	}
	return p.JobStatus, nil
}

// JobTrace fetches a job's recorded spans as raw Chrome trace-event
// JSON (GET /v1/jobs/{id}/trace). The coordinator uses it to stitch a
// worker's spans onto its own routing timeline.
func (c *Client) JobTrace(ctx context.Context, id string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.requestTimeout())
	defer cancel()
	ctx = traceConns(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("service: %s: trace: %w", c.base, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("service: %s: trace: %w", c.base, err)
	}
	if resp.StatusCode >= 400 {
		return nil, c.apiError(resp.StatusCode, resp.Status, data)
	}
	return data, nil
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	if st, handled, err := c.wireJob(ctx, id); handled {
		return st, err
	}
	var p JobPayload
	if err := c.doJSON(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil, &p); err != nil {
		return JobStatus{}, err
	}
	return p.JobStatus, nil
}

// Cancel aborts a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var p JobPayload
	if err := c.doJSON(ctx, http.MethodDelete, c.base+"/v1/jobs/"+id, nil, &p); err != nil {
		return JobStatus{}, err
	}
	return p.JobStatus, nil
}

// ResultByHash fetches a cached result by config hash.
func (c *Client) ResultByHash(ctx context.Context, hash string) (sim.Result, bool, error) {
	if res, ok, handled, err := c.wireResult(ctx, hash); handled {
		return res, ok, err
	}
	var p ResultPayload
	if err := c.doJSON(ctx, http.MethodGet, c.base+"/v1/results/"+hash, nil, &p); err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Code == http.StatusNotFound {
			return sim.Result{}, false, nil
		}
		return sim.Result{}, false, err
	}
	return p.Result, true, nil
}

// Health fetches /v1/healthz.
func (c *Client) Health(ctx context.Context) (HealthPayload, error) {
	var h HealthPayload
	if err := c.doJSON(ctx, http.MethodGet, c.base+"/v1/healthz", nil, &h); err != nil {
		return HealthPayload{}, err
	}
	return h, nil
}

// Checkpoint fetches a warm checkpoint's raw bytes by digest. ok=false
// means the server does not hold it (not an error).
func (c *Client) Checkpoint(ctx context.Context, digest string) ([]byte, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, c.requestTimeout())
	defer cancel()
	ctx = traceConns(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/checkpoints/"+digest, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("service: %s: checkpoint: %w", c.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return nil, false, nil
	}
	if resp.StatusCode >= 400 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return nil, false, c.apiError(resp.StatusCode, resp.Status, data)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, false, fmt.Errorf("service: %s: checkpoint: %w", c.base, err)
	}
	return data, true, nil
}

// FetchCheckpoint asks the server to pull a checkpoint digest from the
// listed peer base URLs (POST /v1/checkpoints/fetch). It returns
// whether the server now holds the digest.
func (c *Client) FetchCheckpoint(ctx context.Context, digest string, sources []string) (bool, error) {
	body, err := json.Marshal(checkpointFetchRequest{Digest: digest, Sources: sources})
	if err != nil {
		return false, err
	}
	var resp checkpointFetchResponse
	if err := c.doJSON(ctx, http.MethodPost, c.base+"/v1/checkpoints/fetch", body, &resp); err != nil {
		return false, err
	}
	return resp.Fetched, nil
}

// waitRewatchBackoff spaces Wait's re-watches after a stream that ended
// early without a terminal state (a coordinator answers /events with
// 503 while the job awaits placement), so Wait never busy-loops. It
// matches the coordinator's default placement retry tick: re-watching
// sooner cannot find the job placed any sooner.
const waitRewatchBackoff = 250 * time.Millisecond

// Wait blocks until the job reaches a terminal state or ctx expires,
// following the server's push stream (Watch: the wire watch when
// available, SSE otherwise), so it returns as soon as the job settles.
// Each stream attempt is bounded by RequestTimeout; an attempt that ends
// without a terminal state is followed by one bounded status call, whose
// error is returned — a worker that hangs mid-wait yields an error
// within about twice RequestTimeout instead of blocking forever.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	for {
		attempt, cancel := context.WithTimeout(ctx, c.requestTimeout())
		st, err := c.Watch(attempt, id, nil)
		early := attempt.Err() == nil
		cancel()
		if err == nil && st.State.Terminal() {
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return JobStatus{}, err
		}
		st, err = c.Job(ctx, id)
		if err != nil {
			return JobStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if early {
			select {
			case <-ctx.Done():
				return JobStatus{}, ctx.Err()
			case <-time.After(waitRewatchBackoff):
			}
		}
	}
}

// Run submits a spec and blocks for its result — the remote counterpart
// of Pool.Run.
func (c *Client) Run(ctx context.Context, spec JobSpec) (sim.Result, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return sim.Result{}, err
	}
	if !st.State.Terminal() {
		st, err = c.Wait(ctx, st.ID)
		if err != nil {
			return sim.Result{}, err
		}
	}
	if st.State != StateDone || st.Result == nil {
		return sim.Result{}, fmt.Errorf("service: job %s %s: %s", st.ID, st.State, st.Error)
	}
	return *st.Result, nil
}

// Event is one parsed Server-Sent Event: the event name and its raw
// JSON data payload.
type Event struct {
	Name string
	Data json.RawMessage
}

// Terminal reports whether the event closes a job stream (named after a
// terminal job state, or a batch stream's final aggregate).
func (e Event) Terminal() bool {
	return State(e.Name).Terminal() || e.Name == "batch"
}

// stream issues a streaming request and delivers each SSE event to fn
// until the stream ends, fn returns an error, or ctx is canceled. The
// connection setup (headers received) is bounded by RequestTimeout;
// the stream itself is bounded by ctx only.
func (c *Client) stream(ctx context.Context, method, url string, body []byte, fn func(Event) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ctx = traceConns(ctx)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("Accept", "text/event-stream")
	connTimer := time.AfterFunc(c.requestTimeout(), cancel)
	resp, err := c.http.Do(req)
	connTimer.Stop()
	if err != nil {
		return fmt.Errorf("service: %s: stream: %w", c.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return c.apiError(resp.StatusCode, resp.Status, data)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		return fmt.Errorf("service: %s: stream: unexpected content type %q", c.base, ct)
	}

	sc := bufio.NewScanner(resp.Body)
	// The terminal `batch` event carries a whole sweep's aggregate in
	// one data line; allow it to grow to the same 64MB bound as JSON
	// responses.
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	var cur Event
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = json.RawMessage(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.Name != "" {
				if err := fn(cur); err != nil {
					return err
				}
			}
			cur = Event{}
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("service: %s: stream: %w", c.base, err)
	}
	return nil
}

// Events follows a job's SSE progress stream, delivering every event
// (progress snapshots, then one terminal event) to fn. It returns when
// the stream ends, fn errors, or ctx is canceled — a slow or stalled
// stream is abandoned cleanly via ctx.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) error) error {
	return c.stream(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil, fn)
}

// Batch submits a whole sweep in one request (POST /v1/batch) and
// streams per-point completions to onPoint (which may be nil) as they
// finish, returning the aggregate in submission order.
func (c *Client) Batch(ctx context.Context, spec BatchSpec, onPoint func(BatchPoint)) (BatchResult, error) {
	if res, handled, err := c.wireBatch(ctx, spec, onPoint); handled {
		return res, err
	}
	// A wire stream severed mid-batch falls through here and restarts
	// the batch over JSON: onPoint may then see some points twice
	// (delivery is at-least-once across a transport failure), but the
	// pool coalesces re-submitted points so nothing re-executes and the
	// aggregate is unaffected.
	body, err := json.Marshal(spec)
	if err != nil {
		return BatchResult{}, err
	}
	var res BatchResult
	var sawBatch bool
	err = c.stream(ctx, http.MethodPost, c.base+"/v1/batch", body, func(ev Event) error {
		switch ev.Name {
		case "point":
			var pt BatchPoint
			if err := json.Unmarshal(ev.Data, &pt); err != nil {
				return fmt.Errorf("service: %s: decode batch point: %w", c.base, err)
			}
			if onPoint != nil {
				onPoint(pt)
			}
		case "batch":
			if err := json.Unmarshal(ev.Data, &res); err != nil {
				return fmt.Errorf("service: %s: decode batch result: %w", c.base, err)
			}
			sawBatch = true
		case "error":
			var e struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(ev.Data, &e) == nil && e.Error != "" {
				return &APIError{Code: http.StatusInternalServerError, Message: e.Error, Worker: c.base}
			}
			return &APIError{Code: http.StatusInternalServerError, Message: "batch failed", Worker: c.base}
		}
		return nil
	})
	if err != nil {
		return BatchResult{}, err
	}
	if !sawBatch {
		return BatchResult{}, fmt.Errorf("service: %s: batch stream ended without aggregate", c.base)
	}
	return res, nil
}

// Watch follows a job to completion, delivering progress snapshots to
// onProgress (which may be nil) and returning the terminal status —
// the structured form of Events, served over the wire fast path when
// available and the SSE stream otherwise.
func (c *Client) Watch(ctx context.Context, id string, onProgress func(sim.Progress)) (JobStatus, error) {
	if st, handled, err := c.wireWatch(ctx, id, onProgress); handled {
		return st, err
	}
	var final JobStatus
	sawTerminal := false
	err := c.Events(ctx, id, func(ev Event) error {
		switch {
		case ev.Name == "progress":
			if onProgress != nil {
				var pr sim.Progress
				if err := json.Unmarshal(ev.Data, &pr); err != nil {
					return fmt.Errorf("service: %s: decode progress: %w", c.base, err)
				}
				onProgress(pr)
			}
		case State(ev.Name).Terminal():
			var p JobPayload
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				return fmt.Errorf("service: %s: decode terminal event: %w", c.base, err)
			}
			final = p.JobStatus
			sawTerminal = true
		}
		return nil
	})
	if err != nil {
		return JobStatus{}, err
	}
	if !sawTerminal {
		return JobStatus{}, fmt.Errorf("service: %s: event stream ended without a terminal state", c.base)
	}
	return final, nil
}
