package service

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"bump/internal/sim"
	"bump/internal/snapshot"
	"bump/internal/wire"
)

// The wire fast path carries the hot endpoints — submit, status/watch,
// result fetch, whole batches — as snapshot-codec bodies inside
// internal/wire frames. Frame types below; every request gets exactly
// one response frame, except the streaming calls (watch, batch) which
// interleave progress/point frames before the final one. Bodies are
// encoded with snapshot.Writer.Any, so the payload layout is the
// canonical codec's and a snapshot.FormatVersion bump implies a
// wire.FormatVersion bump.
const (
	wmSubmit byte = 0x01 // wireJobSpec -> wmStatus | wmErr
	wmJob    byte = 0x02 // wireRef     -> wmStatus | wmErr
	wmResult byte = 0x03 // wireRef     -> wmResultPayload | wmErr
	wmBatch  byte = 0x04 // wireBatchSpec -> wmPoint* then wmBatchDone | wmErr
	wmWatch  byte = 0x05 // wireRef     -> wmProgress* then wmStatus | wmErr

	wmStatus        byte = 0x10
	wmResultPayload byte = 0x11
	wmPoint         byte = 0x12
	wmBatchDone     byte = 0x13
	wmProgress      byte = 0x14
	wmErr           byte = 0x1F
)

// encodeMsg serializes a plain struct as a bare snapshot body.
func encodeMsg(v any) []byte {
	w := snapshot.NewWriter()
	w.Any(v)
	// Copy out: Body aliases the writer's buffer.
	return append([]byte(nil), w.Body()...)
}

// decodeMsg decodes a frame body into ptr, requiring full consumption.
func decodeMsg(body []byte, ptr any) error {
	r := snapshot.NewBodyReader(body)
	r.AnyInto(ptr)
	return r.Finish()
}

// wireRef names a job ID or result hash.
type wireRef struct {
	Ref string
}

// wireJobSpec wraps a spec for Any encoding.
type wireJobSpec struct {
	Spec JobSpec
}

// wireBatchSpec wraps a batch.
type wireBatchSpec struct {
	Specs []JobSpec
}

// wireStatus is JobStatus flattened for the reflective codec: optional
// pointers become presence flags. Metrics are NOT carried — they are a
// deterministic function of the result (PayloadFor), so the client
// rebuilds them and frames stay small.
type wireStatus struct {
	ID          string
	Hash        string
	State       string
	Cached      bool
	Priority    int
	Spec        JobSpec
	HasProgress bool
	Progress    sim.Progress
	HasResult   bool
	Result      sim.Result
	Error       string
}

func toWireStatus(st JobStatus) wireStatus {
	ws := wireStatus{
		ID:       st.ID,
		Hash:     st.Hash,
		State:    string(st.State),
		Cached:   st.Cached,
		Priority: st.Priority,
		Spec:     st.Spec,
		Error:    st.Error,
	}
	if st.Progress != nil {
		ws.HasProgress = true
		ws.Progress = *st.Progress
	}
	if st.Result != nil {
		ws.HasResult = true
		ws.Result = *st.Result
	}
	return ws
}

func (ws wireStatus) status() JobStatus {
	st := JobStatus{
		ID:       ws.ID,
		Hash:     ws.Hash,
		State:    State(ws.State),
		Cached:   ws.Cached,
		Priority: ws.Priority,
		Spec:     ws.Spec,
		Error:    ws.Error,
	}
	if ws.HasProgress {
		pr := ws.Progress
		st.Progress = &pr
	}
	if ws.HasResult {
		r := ws.Result
		st.Result = &r
	}
	return st
}

// wireResultMsg answers a result-by-hash lookup.
type wireResultMsg struct {
	Found  bool
	Hash   string
	Result sim.Result
}

// wirePoint is one completed batch point.
type wirePoint struct {
	Index  int
	Worker string
	Status wireStatus
}

// wireBatchDone closes a batch stream; the client has already
// accumulated the points.
type wireBatchDone struct {
	Failed int
}

// wireErrMsg mirrors APIError across the wire.
type wireErrMsg struct {
	Code    int
	Message string
}

// ---- Backend ----------------------------------------------------------

// WireBackend is what a wire listener serves: the hot service surface,
// implemented by a local Pool (bumpd) or a cluster Coordinator
// (bumpctl). Errors returned as *APIError cross the wire with their
// code; other errors map to 400.
type WireBackend interface {
	WireSubmit(ctx context.Context, spec JobSpec) (JobStatus, error)
	WireJob(ctx context.Context, id string) (JobStatus, error)
	// WireWatch streams progress snapshots to onProgress (serialized,
	// never called after return) and returns the terminal status.
	WireWatch(ctx context.Context, id string, onProgress func(sim.Progress)) (JobStatus, error)
	WireResult(ctx context.Context, hash string) (sim.Result, bool, error)
	// WireBatch runs the whole sweep, streaming completions to onPoint
	// (serialized), and returns the aggregate.
	WireBatch(ctx context.Context, spec BatchSpec, onPoint func(BatchPoint)) (BatchResult, error)
}

// poolBackend adapts a local Pool to the wire surface.
type poolBackend struct {
	p *Pool
}

// NewPoolWireBackend serves a Pool over the wire protocol (bumpd's
// backend; bumpctl uses the cluster Coordinator instead).
func NewPoolWireBackend(p *Pool) WireBackend { return poolBackend{p: p} }

func (b poolBackend) WireSubmit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	return b.p.Submit(spec)
}

func (b poolBackend) WireJob(ctx context.Context, id string) (JobStatus, error) {
	return b.p.Job(id)
}

func (b poolBackend) WireWatch(ctx context.Context, id string, onProgress func(sim.Progress)) (JobStatus, error) {
	ch, cancel, err := b.p.Subscribe(id)
	if err != nil {
		return JobStatus{}, err
	}
	defer cancel()
	for {
		select {
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		case pr, ok := <-ch:
			if !ok {
				return b.p.Job(id)
			}
			if onProgress != nil {
				onProgress(pr)
			}
		}
	}
}

func (b poolBackend) WireResult(ctx context.Context, hash string) (sim.Result, bool, error) {
	res, ok := b.p.ResultByHash(hash)
	return res, ok, nil
}

func (b poolBackend) WireBatch(ctx context.Context, spec BatchSpec, onPoint func(BatchPoint)) (BatchResult, error) {
	return RunBatch(ctx, b.p, spec, onPoint)
}

// ---- Server -----------------------------------------------------------

// wireErrCode maps backend errors to the code carried in a wmErr frame,
// mirroring the HTTP handler's status mapping so both protocols fail
// identically.
func wireErrCode(err error) int {
	var apiErr *APIError
	switch {
	case errors.As(err, &apiErr):
		return apiErr.Code
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// wireIdleTimeout is how long a server-side connection may sit between
// requests before it is dropped (clients re-dial transparently).
const wireIdleTimeout = 5 * time.Minute

// NewWireHandler returns a per-connection handler (for wire.Serve)
// speaking the request/response protocol above against backend.
func NewWireHandler(backend WireBackend) func(*wire.Conn) {
	return func(c *wire.Conn) {
		for {
			c.SetReadDeadline(time.Now().Add(wireIdleTimeout))
			typ, body, err := c.ReadFrame()
			if err != nil {
				return
			}
			c.SetReadDeadline(time.Time{})
			if !serveWireRequest(backend, c, typ, body) {
				return
			}
		}
	}
}

func writeMsg(c *wire.Conn, typ byte, v any) error {
	return c.WriteFrame(typ, encodeMsg(v))
}

func writeWireErr(c *wire.Conn, err error) error {
	msg := err.Error()
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		msg = apiErr.Message
	}
	return writeMsg(c, wmErr, wireErrMsg{Code: wireErrCode(err), Message: msg})
}

// serveWireRequest handles one request frame; false = drop the
// connection (protocol violation or write failure).
func serveWireRequest(backend WireBackend, c *wire.Conn, typ byte, body []byte) bool {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if typ == wmWatch || typ == wmBatch {
		// A stream lives only as long as its connection: a client that
		// hangs up, or a server closing, cancels it, so a stream that
		// writes nothing for a while (a coordinator watch on a job
		// awaiting placement) cannot outlive its client or hold up
		// Server.Close. Unary requests skip the watch: they are bounded
		// by the backend, and the background read would cost them about
		// 40% more per call (BenchmarkClientSubmitRoundtrip/wire).
		defer c.WatchClose(cancel)()
	}

	switch typ {
	case wmSubmit:
		var req wireJobSpec
		if err := decodeMsg(body, &req); err != nil {
			return writeWireErr(c, err) == nil
		}
		st, err := backend.WireSubmit(ctx, req.Spec)
		if err != nil {
			return writeWireErr(c, err) == nil
		}
		return writeMsg(c, wmStatus, toWireStatus(st)) == nil

	case wmJob:
		var req wireRef
		if err := decodeMsg(body, &req); err != nil {
			return writeWireErr(c, err) == nil
		}
		st, err := backend.WireJob(ctx, req.Ref)
		if err != nil {
			return writeWireErr(c, err) == nil
		}
		return writeMsg(c, wmStatus, toWireStatus(st)) == nil

	case wmResult:
		var req wireRef
		if err := decodeMsg(body, &req); err != nil {
			return writeWireErr(c, err) == nil
		}
		res, ok, err := backend.WireResult(ctx, req.Ref)
		if err != nil {
			return writeWireErr(c, err) == nil
		}
		return writeMsg(c, wmResultPayload, wireResultMsg{Found: ok, Hash: req.Ref, Result: res}) == nil

	case wmWatch:
		var req wireRef
		if err := decodeMsg(body, &req); err != nil {
			return writeWireErr(c, err) == nil
		}
		var writeFailed atomic.Bool
		st, err := backend.WireWatch(ctx, req.Ref, func(pr sim.Progress) {
			if writeMsg(c, wmProgress, pr) != nil {
				writeFailed.Store(true)
				cancel() // stop the backend stream; the client is gone
			}
		})
		if writeFailed.Load() {
			return false
		}
		if err != nil {
			return writeWireErr(c, err) == nil
		}
		return writeMsg(c, wmStatus, toWireStatus(st)) == nil

	case wmBatch:
		var req wireBatchSpec
		if err := decodeMsg(body, &req); err != nil {
			return writeWireErr(c, err) == nil
		}
		var writeFailed atomic.Bool
		res, err := backend.WireBatch(ctx, BatchSpec{Specs: req.Specs}, func(pt BatchPoint) {
			wp := wirePoint{Index: pt.Index, Worker: pt.Worker, Status: toWireStatus(pt.Status.JobStatus)}
			if writeMsg(c, wmPoint, wp) != nil {
				writeFailed.Store(true)
				cancel()
			}
		})
		if writeFailed.Load() {
			return false
		}
		if err != nil {
			return writeWireErr(c, err) == nil
		}
		return writeMsg(c, wmBatchDone, wireBatchDone{Failed: res.Failed}) == nil

	default:
		// Unknown request type: answer with an error but keep the
		// connection (forward compatibility for additive request types).
		return writeMsg(c, wmErr, wireErrMsg{Code: http.StatusNotImplemented, Message: "unknown wire request type"}) == nil
	}
}
