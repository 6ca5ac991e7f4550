package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"ftbfs"
	"ftbfs/internal/core"
	"ftbfs/internal/store"
	"ftbfs/internal/telemetry"
	"ftbfs/internal/wire"
)

// Backend answers the query surface an Edge serves. Requests arrive in the
// wire form QueryRequest.Wire, DecodeBatchQuery and MutateRequest.Wire
// produce; a refusal is an in-protocol *wire.Error whose code is the HTTP
// status and whose message is the error body. *Server answers from its
// store; the cluster router answers from its shards.
type Backend interface {
	// Point answers one point query of type typ (wire.TDist,
	// wire.TDistAvoiding or wire.TDistAvoidingVertex) addressing key k.
	Point(ctx context.Context, k store.Key, typ byte, q wire.PointQuery) (int32, *wire.Error)
	// Batch answers a vector into dists and errs, parallel to slots; keys
	// are the slots' registry keys. A slot whose errs entry is already set
	// answers -1.
	Batch(ctx context.Context, keys []store.Key, slots []wire.BatchSlot, dists []int, errs []string)
	// Mutate applies one mutation batch to the graph of the given lineage.
	Mutate(ctx context.Context, lineage uint64, muts []wire.MutationWire) (wire.MutateResult, *wire.Error)
	// Build registers g and builds the edge structures of pairs under alg
	// plus the vertex structures of req.VertexSources.
	Build(ctx context.Context, g *ftbfs.Graph, req *BuildRequest, alg ftbfs.Algorithm, pairs []BuildPair) (*BuildResponse, *wire.Error)
}

// EdgeOptions fit an Edge to its tier. The counters and histograms belong to
// the tier's registry, so each tier keeps its own metric names.
type EdgeOptions struct {
	// Span names the trace span covering a whole request.
	Span string
	// DefaultBudget bounds a request that carries no BudgetHeader; 0 leaves
	// it unbounded.
	DefaultBudget time.Duration
	// TraceSample traces every Nth point query; 0 traces only requests that
	// carry a telemetry.TraceHeader.
	TraceSample int
	// Requests counts every request; Errors counts every error reply, once.
	Requests, Errors *telemetry.Counter
	// Route registers the latency histogram of one route.
	Route func(path string) *telemetry.OutcomeHist

	// admit passes a work-bearing request through the shard's load shedder;
	// nil on the router, which does not shed.
	admit func(context.Context) (*limiter, *wire.Error)
}

// Edge is the HTTP edge of the query service, written once for both tiers:
// the body bound, the deadline budget, tracing, load shedding, status capture
// and the /build, /mutate, /dist, /dist-avoiding, /dist-avoiding-vertex and
// /batch-query handlers, all answering through a Backend. A shard and the
// cluster router differ only in their Backend, so the router answers every
// one of these endpoints exactly as a single node does, by construction.
type Edge struct {
	b        Backend
	opts     EdgeOptions
	mux      *http.ServeMux
	routes   map[string]*telemetry.OutcomeHist // written only by Handle, before serving
	traces   *telemetry.TraceRing
	pointSeq atomic.Uint64 // point queries seen, drives TraceSample
}

// NewEdge returns the edge serving the query surface over b, plus
// /debug/traces; the tier adds its own endpoints with Handle.
func NewEdge(b Backend, opts EdgeOptions) *Edge {
	e := &Edge{
		b:      b,
		opts:   opts,
		mux:    http.NewServeMux(),
		routes: make(map[string]*telemetry.OutcomeHist),
		traces: telemetry.NewTraceRing(256, 0),
	}
	e.Handle("/build", e.handleBuild)
	e.Handle("/mutate", e.handleMutate)
	e.Handle("/dist", e.handlePoint)
	e.Handle("/dist-avoiding", e.handlePoint)
	e.Handle("/dist-avoiding-vertex", e.handlePoint)
	e.Handle("/batch-query", e.handleBatchQuery)
	e.Handle("/debug/traces", e.traces.ServeHTTP)
	return e
}

// Handle serves one of the tier's own endpoints, timed under its route. It
// must be called before the edge serves.
func (e *Edge) Handle(path string, h http.HandlerFunc) {
	e.mux.HandleFunc(path, h)
	e.routes[path] = e.opts.Route(path)
}

// shedsLoad reports whether an endpoint passes the load shedder: the query
// surface, which does the work. Health and readiness probes must answer on
// an overloaded node (shedding them would flap the cluster's routing), stats
// feed dashboards, and the handoff surface stays up so a draining or
// struggling node can still move its structures away.
func shedsLoad(path string) bool {
	switch path {
	case "/build", "/mutate", "/dist", "/dist-avoiding", "/dist-avoiding-vertex", "/batch-query":
		return true
	}
	return false
}

// pointPath reports whether the route is a point query — the only routes
// TraceSample samples (they are the latency-sensitive plane worth tracing).
func pointPath(path string) bool {
	switch path {
	case "/dist", "/dist-avoiding", "/dist-avoiding-vertex":
		return true
	}
	return false
}

// parseBudget reads a BudgetHeader value: whole milliseconds, saturating at
// the largest Duration, or def when the value is not a positive integer.
func parseBudget(h string, def time.Duration) time.Duration {
	ms, err := strconv.ParseInt(h, 10, 64)
	if (err != nil && !errors.Is(err, strconv.ErrRange)) || ms <= 0 {
		return def
	}
	if ms > math.MaxInt64/int64(time.Millisecond) {
		return math.MaxInt64
	}
	return time.Duration(ms) * time.Millisecond
}

// ServeHTTP implements http.Handler. Before any handler runs, the body is
// bounded, the deadline budget (BudgetHeader, else DefaultBudget) becomes the
// request context's deadline, and a traced request (a TraceHeader, or every
// TraceSample-th point query) carries its trace in the context, so every
// shard attempt below propagates what remains of both. On a shard,
// work-bearing endpoints then pass the load shedder: a saturated node answers
// 503 + Retry-After at once instead of queueing without bound and missing
// every deadline together.
func (e *Edge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.opts.Requests.Inc()
	start := time.Now()
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	}
	budget := e.opts.DefaultBudget
	if h := r.Header.Get(BudgetHeader); h != "" {
		budget = parseBudget(h, budget)
	}
	if budget > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		r = r.WithContext(ctx)
	}
	var tr *telemetry.Trace
	if id, ok := telemetry.ParseTraceID(r.Header.Get(telemetry.TraceHeader)); ok {
		tr = telemetry.NewTrace(id)
	} else if n := e.opts.TraceSample; n > 0 && pointPath(r.URL.Path) && e.pointSeq.Add(1)%uint64(n) == 0 {
		tr = telemetry.NewTrace(0)
	}
	if tr != nil {
		r = r.WithContext(telemetry.WithTrace(r.Context(), tr))
	}
	if e.opts.admit != nil && shedsLoad(r.URL.Path) {
		work, werr := e.opts.admit(r.Context())
		if werr != nil {
			if werr.Code == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", work.retryAfter())
			}
			e.Error(w, werr.Code, werr.Msg)
			e.observe(r.URL.Path, start, werr.Code)
			return
		}
		defer work.release()
	}
	if tr == nil {
		sw := statusWriter{ResponseWriter: w}
		e.mux.ServeHTTP(&sw, r)
		e.observe(r.URL.Path, start, sw.status)
		return
	}
	// Traced path: buffer the response so the span header (complete only
	// after the handler returns) still precedes the body.
	bw := &bufferedWriter{statusWriter: statusWriter{ResponseWriter: w}}
	e.mux.ServeHTTP(bw, r)
	tr.Add(e.opts.Span, start)
	bw.Header().Set(telemetry.SpanHeader, tr.SpansJSON())
	bw.flush()
	e.traces.Record(tr, r.URL.Path, time.Since(start))
	e.observe(r.URL.Path, start, bw.status)
}

// observe records one finished request into its route's outcome-labeled
// histogram; unregistered paths (404s) are not a route and record nothing.
func (e *Edge) observe(path string, start time.Time, status int) {
	if h := e.routes[path]; h != nil {
		if status == 0 {
			status = http.StatusOK
		}
		h.Observe(time.Since(start), telemetry.OutcomeOf(status))
	}
}

// WriteJSON writes v as a JSON reply with the given status: the one encoding
// every JSON reply of both tiers goes through.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// Error writes the error reply {"error": msg} and counts it, once, in the
// tier's error counter.
func (e *Edge) Error(w http.ResponseWriter, code int, msg string) {
	e.opts.Errors.Inc()
	WriteJSON(w, code, map[string]string{"error": msg})
}

// decodePost decodes a POST body into v, answering 405 for another method
// and 400 for a malformed body; it reports whether the handler goes on.
func (e *Edge) decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		e.Error(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		e.Error(w, http.StatusBadRequest, "bad body: "+err.Error())
		return false
	}
	return true
}

// handlePoint serves /dist, /dist-avoiding and /dist-avoiding-vertex. The
// answer is written without reflection, byte-identical to WriteJSON of
// {"dist": d}.
func (e *Edge) handlePoint(w http.ResponseWriter, r *http.Request) {
	q, err := ParseQuery(r)
	if err != nil {
		e.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	k, typ, pq, err := q.Wire(r.URL.Path)
	if err != nil {
		e.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	d, werr := e.b.Point(r.Context(), k, typ, pq)
	if werr != nil {
		e.Error(w, werr.Code, werr.Msg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	b := append(make([]byte, 0, 24), `{"dist":`...)
	b = strconv.AppendInt(b, int64(d), 10)
	_, _ = w.Write(append(b, "}\n"...))
}

// handleBatchQuery serves /batch-query: one vector, per-slot error slots.
func (e *Edge) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		e.Error(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	keys, slots, errs, err := DecodeBatchQuery(r)
	if err == nil && len(slots) == 0 {
		err = errors.New("empty query vector")
	}
	if err != nil {
		e.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	dists := make([]int, len(slots))
	e.b.Batch(r.Context(), keys, slots, dists, errs)
	writeBatchReply(w, dists, errs)
}

// writeBatchReply writes the /batch-query reply, byte-identical to
// WriteJSON of BatchQueryResponse{dists, errs} with errs omitted when every
// slot answered. A reply with no error, the common one, is written without
// reflection; one that carries errors goes to WriteJSON, the reference for
// their escaping.
func writeBatchReply(w http.ResponseWriter, dists []int, errs []string) {
	if slices.ContainsFunc(errs, func(msg string) bool { return msg != "" }) {
		WriteJSON(w, http.StatusOK, BatchQueryResponse{Dists: dists, Errors: errs})
		return
	}
	b := append(make([]byte, 0, 16+4*len(dists)), `{"dists":[`...)
	for i, d := range dists {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(b, "]}\n"...))
}

// handleMutate serves /mutate: a malformed batch is refused whole, before
// any work.
func (e *Edge) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if !e.decodePost(w, r, &req) {
		return
	}
	lineage, muts, err := req.Wire()
	if err != nil {
		e.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	res, werr := e.b.Mutate(r.Context(), lineage, muts)
	if werr != nil {
		e.Error(w, werr.Code, werr.Msg)
		return
	}
	WriteJSON(w, http.StatusOK, MutateResponseFrom(res))
}

// handleBuild serves /build: the graph is materialised and validated here,
// so an oversized or malformed one is refused before any work.
func (e *Edge) handleBuild(w http.ResponseWriter, r *http.Request) {
	var req BuildRequest
	if !e.decodePost(w, r, &req) {
		return
	}
	g, err := GraphFromBuildRequest(&req)
	var alg ftbfs.Algorithm
	if err == nil {
		alg, err = core.ParseAlgorithm(req.Alg)
	}
	if err != nil {
		e.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	resp, werr := e.b.Build(r.Context(), g, &req, alg, req.ResolvedPairs())
	if werr != nil {
		e.Error(w, werr.Code, werr.Msg)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// statusWriter captures the status code a handler writes, so ServeHTTP can
// label its latency observation with the request outcome.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// bufferedWriter additionally buffers the body of a traced request: the
// span header must be set before the first body byte reaches the client, and
// the spans are only complete once the handler returns. Traced requests are
// a sampled minority, so the extra copy never touches the hot path.
type bufferedWriter struct {
	statusWriter
	body []byte
}

func (w *bufferedWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *bufferedWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}

// flush writes the buffered status and body for real.
func (w *bufferedWriter) flush() {
	code := w.status
	if code == 0 {
		code = http.StatusOK
	}
	w.ResponseWriter.WriteHeader(code)
	w.ResponseWriter.Write(w.body)
}
