package telemetry

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"
)

const (
	// TraceHeader carries the hex trace ID on HTTP requests; the wire
	// protocol carries the same ID in every frame's trace field.
	TraceHeader = "X-Ftbfs-Trace"
	// SpanHeader is set on HTTP responses of traced requests: a JSON array
	// of the spans the serving side recorded, so the caller can fold them
	// into its own trace record. Wire responses carry the same spans in
	// their span section.
	SpanHeader = "X-Ftbfs-Spans"

	// maxSpans bounds the span log of a single trace; a runaway layer
	// cannot grow a trace without bound.
	maxSpans = 64
)

// Span is one completed, named unit of work inside a trace. Offsets and
// durations are microseconds relative to the owning trace's start, which
// keeps records compact and clock-skew between layers irrelevant for
// reading a single layer's spans.
type Span struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// Trace is a request-scoped span log. It is safe for concurrent use; a
// request that fans out (hedges, scatter-gather) appends from several
// goroutines.
type Trace struct {
	id    uint64
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTrace returns a trace with the given ID, generating a random non-zero
// ID when id is 0.
func NewTrace(id uint64) *Trace {
	for id == 0 {
		id = rand.Uint64()
	}
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace's 64-bit ID (never 0).
func (t *Trace) ID() uint64 { return t.id }

// IDString renders the ID the way TraceHeader carries it.
func (t *Trace) IDString() string { return FormatTraceID(t.id) }

// Start returns the local time the trace was created.
func (t *Trace) Start() time.Time { return t.start }

// Add records a span that started at start and ends now.
func (t *Trace) Add(name string, start time.Time) {
	t.AddSpan(Span{
		Name:    name,
		StartUs: start.Sub(t.start).Microseconds(),
		DurUs:   time.Since(start).Microseconds(),
	})
}

// AddSpan appends a completed span; beyond maxSpans it is dropped.
func (t *Trace) AddSpan(sp Span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// Fold files spans another hop recorded into t, each renamed
// "<from>:<name>" — how a caller keeps a downstream hop's spans apart from
// its own. Their offsets stay relative to that hop's own trace start, so
// they read as per-layer timelines, not one global clock.
func (t *Trace) Fold(from string, spans []Span) {
	for _, sp := range spans {
		sp.Name = from + ":" + sp.Name
		t.AddSpan(sp)
	}
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SpansJSON renders the recorded spans as a single-line JSON array,
// suitable for the SpanHeader response header.
func (t *Trace) SpansJSON() string {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return "[]"
	}
	return string(b)
}

// FormatTraceID renders a trace ID as 16 lowercase hex digits.
func FormatTraceID(id uint64) string {
	const hexDigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseTraceID parses a hex trace ID; ok is false for malformed or zero
// IDs (zero means untraced everywhere in the plane).
func ParseTraceID(s string) (uint64, bool) {
	if s == "" || len(s) > 16 {
		return 0, false
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil || id == 0 {
		return 0, false
	}
	return id, true
}

type traceCtxKey struct{}

// WithTrace returns a context carrying the trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the context's trace, or nil when the request is
// untraced — the common case, costing one context lookup and no
// allocation.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// TraceRecord is one completed trace as stored in a TraceRing and served
// at /debug/traces.
type TraceRecord struct {
	ID    string    `json:"id"`
	Time  time.Time `json:"time"`
	Route string    `json:"route"`
	DurUs int64     `json:"dur_us"`
	Spans []Span    `json:"spans"`
}

// TraceRing is a bounded ring of recent slow traces. Traces faster than
// the slow threshold are dropped; the ring keeps the most recent keepers
// and evicts the oldest. Safe for concurrent use.
type TraceRing struct {
	mu   sync.Mutex
	slow time.Duration
	buf  []TraceRecord
	next int
	n    int
}

// NewTraceRing returns a ring holding up to size traces of total duration
// ≥ slow. A slow threshold of 0 keeps every recorded trace; size ≤ 0
// defaults to 64.
func NewTraceRing(size int, slow time.Duration) *TraceRing {
	if size <= 0 {
		size = 64
	}
	return &TraceRing{slow: slow, buf: make([]TraceRecord, size)}
}

// Record files a completed trace that took total. Nil traces and traces
// under the slow threshold are ignored.
func (r *TraceRing) Record(t *Trace, route string, total time.Duration) {
	if r == nil || t == nil || total < r.slow {
		return
	}
	rec := TraceRecord{
		ID:    t.IDString(),
		Time:  t.start,
		Route: route,
		DurUs: total.Microseconds(),
		Spans: t.Spans(),
	}
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained traces, newest first.
func (r *TraceRing) Snapshot() []TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceRecord, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// ServeHTTP serves the ring as JSON — the /debug/traces endpoint.
func (r *TraceRing) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(r.Snapshot())
}
