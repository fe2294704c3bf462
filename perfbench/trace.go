package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	ph "github.com/phishinghook/phishinghook"
)

// layer names one traced boundary. Spans are recorded from the benchmark's
// own wrappers around the calls into each layer; the program itself is not
// instrumented.
type layer int

const (
	lWorkload layer = iota // one backfill pass, tx drain or load window
	lRPC                   // JSON-RPC node handler
	lExplorer              // explorer registry service (behind a proxy)
	lSink                  // alert sink Emit
	lDetector              // CodeScorer.Score / ScoreBackend.ScoreBatch
	lTxScore               // TxScorer.ScoreTx (fused)
	lPayload               // the fused scorer's calldata CodeScorer
	lCode                  // the fused scorer's callee-code CodeScorer
	lWAL                   // AlertWAL Emit (includes the ledger fsync)
	lRouter                // cluster router handler
	lReplica               // replica score handler
	numLayers
)

var layerNames = [numLayers]string{
	"workload", "ethrpc.server", "explorer.server", "monitor.sink", "detector.score",
	"txstream.score", "detector.payload", "detector.code", "monitor.wal_emit",
	"cluster.router", "serve.replica",
}

// maxKeptSpans bounds the spans kept for the trace file; busy and count
// aggregates cover every span regardless.
const maxKeptSpans = 200_000

type span struct {
	Layer  layer
	ID     uint64
	Parent uint64
	Start  int64 // ns since the tracer started
	End    int64
}

// tracer keeps spans in memory and aggregates busy time per layer; self
// time is busy time minus the busy time of child spans.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	root   atomic.Uint64 // current workload span, parent of unlinked spans
	// enabled gates recording; wrappers pass straight through when off.
	enabled atomic.Bool

	count     [numLayers]atomic.Int64
	busy      [numLayers]atomic.Int64 // ns
	childBusy [numLayers]atomic.Int64 // ns of spans whose parent is this layer

	// JSON-RPC exchange counters from the wrapped node handler.
	rpcItems, rpcRespBytes, rpcRefused atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.enabled.Store(true)
	return t
}

// reset drops everything recorded so far (set-up and warm-up traffic). It
// must be called while no traced call is in flight.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.dropped = t.spans[:0], 0
	t.mu.Unlock()
	for l := range t.busy {
		t.count[l].Store(0)
		t.busy[l].Store(0)
		t.childBusy[l].Store(0)
	}
	t.rpcItems.Store(0)
	t.rpcRespBytes.Store(0)
	t.rpcRefused.Store(0)
	t.root.Store(0)
	t.t0 = time.Now()
}

type spanKey struct{}

// spanRef identifies a live span; it travels in contexts so a child span
// created further down the same call finds its parent.
type spanRef struct {
	id    uint64
	layer layer
}

type activeSpan struct {
	t      *tracer
	layer  layer
	id     uint64
	parent spanRef
	start  int64
}

// begin opens a span on l. Its parent is the span carried by ctx, else
// parentLayer's unlinked default (the current workload span).
func (t *tracer) begin(ctx context.Context, l layer, parentLayer layer) activeSpan {
	if !t.enabled.Load() {
		return activeSpan{}
	}
	parent := spanRef{id: t.root.Load(), layer: parentLayer}
	if ctx != nil {
		if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
			parent = ref
		}
	}
	return activeSpan{t: t, layer: l, id: t.nextID.Add(1), parent: parent, start: int64(time.Since(t.t0))}
}

func (s activeSpan) ref() spanRef { return spanRef{id: s.id, layer: s.layer} }

func (s activeSpan) end() {
	t := s.t
	if t == nil {
		return
	}
	stop := int64(time.Since(t.t0))
	d := stop - s.start
	t.count[s.layer].Add(1)
	t.busy[s.layer].Add(d)
	if s.layer != lWorkload {
		t.childBusy[s.parent.layer].Add(d)
	}
	t.mu.Lock()
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, span{Layer: s.layer, ID: s.id, Parent: s.parent.id, Start: s.start, End: stop})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// beginWorkload opens a workload span and makes it the parent of spans
// that arrive without one (HTTP handlers, sinks).
func (t *tracer) beginWorkload() activeSpan {
	s := t.begin(nil, lWorkload, lWorkload)
	s.parent = spanRef{}
	t.root.Store(s.id)
	return s
}

func (t *tracer) busyS(l layer) float64 { return float64(t.busy[l].Load()) / 1e9 }
func (t *tracer) selfS(l layer) float64 { return float64(t.busy[l].Load()-t.childBusy[l].Load()) / 1e9 }
func (t *tracer) calls(l layer) float64 { return float64(t.count[l].Load()) }
func (t *tracer) within(ctx context.Context, s activeSpan) context.Context {
	if s.t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s.ref())
}

// unaccountedCoreS is the part of workload wall time × cores that no
// layer's self time covers: benchmark-side work, scheduling and idle CPU.
func (t *tracer) unaccountedCoreS(cores int) float64 {
	total := t.busyS(lWorkload) * float64(cores)
	for l := lWorkload + 1; l < numLayers; l++ {
		total -= t.selfS(l)
	}
	return total
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(map[string]any{
			"name": layerNames[s.Layer], "id": s.ID, "parent": s.Parent,
			"start_ns": s.Start, "end_ns": s.End,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		if err := enc.Encode(map[string]any{"dropped_spans": t.dropped}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedScorer times a CodeScorer.
type tracedScorer struct {
	t     *tracer
	layer layer
	inner ph.CodeScorer
}

func (s tracedScorer) Score(ctx context.Context, code []byte) (ph.Verdict, error) {
	sp := s.t.begin(ctx, s.layer, lWorkload)
	v, err := s.inner.Score(ctx, code)
	sp.end()
	return v, err
}

// tracedTxScorer times a TxScorer and parents the fused scorer's two
// CodeScorer calls under its span.
type tracedTxScorer struct {
	t     *tracer
	inner ph.TxScorer
}

func (s tracedTxScorer) ScoreTx(ctx context.Context, calldata, code []byte) (ph.TxVerdict, error) {
	sp := s.t.begin(ctx, lTxScore, lWorkload)
	v, err := s.inner.ScoreTx(s.t.within(ctx, sp), calldata, code)
	sp.end()
	return v, err
}

// tracedBackend times a replica's ScoreBackend.
type tracedBackend struct {
	ph.ScoreBackend
	t *tracer
}

func (b tracedBackend) ScoreBatch(ctx context.Context, codes [][]byte) ([]ph.Verdict, error) {
	sp := b.t.begin(ctx, lDetector, lReplica)
	vs, err := b.ScoreBackend.ScoreBatch(ctx, codes)
	sp.end()
	return vs, err
}

// tracedSink times an AlertSink.
type tracedSink struct {
	t     *tracer
	layer layer
	inner ph.AlertSink
}

func (s tracedSink) Emit(a ph.Alert) error {
	sp := s.t.begin(nil, s.layer, lWorkload)
	err := s.inner.Emit(a)
	sp.end()
	return err
}

// countingWriter records a handler's status and response size.
type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// tracedHandler times an HTTP handler. Spans carry the request on into the
// handler's context, so a traced ScoreBackend under a replica nests.
func tracedHandler(t *tracer, l, parentLayer layer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := t.begin(nil, l, parentLayer)
		h.ServeHTTP(w, r.WithContext(t.within(r.Context(), sp)))
		sp.end()
	})
}

// tracedRPC times the JSON-RPC node handler and counts requests, batch
// items, response bytes and refusals (429).
func tracedRPC(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := t.begin(nil, lRPC, lWorkload)
		body, err := io.ReadAll(r.Body)
		if err == nil {
			t.rpcItems.Add(int64(max(1, bytes.Count(body, []byte(`"method"`)))))
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(cw, r)
		t.rpcRespBytes.Add(cw.n)
		if cw.status == http.StatusTooManyRequests {
			t.rpcRefused.Add(1)
		}
		sp.end()
	})
}
