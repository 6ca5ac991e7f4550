package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftbfs"
	"ftbfs/internal/core"
	"ftbfs/internal/server"
	"ftbfs/internal/store"
	"ftbfs/internal/telemetry"
	"ftbfs/internal/wire"
)

// DefaultHedgeDelay is how long a point query waits on the primary replica
// before hedging the same request to the next one. Loopback and same-rack
// replicas answer in well under a millisecond, so a few milliseconds only
// fires on a genuinely slow or dead primary.
const DefaultHedgeDelay = 3 * time.Millisecond

// DefaultBuildTimeout bounds one /build fan-out. Builds on graphs near
// MaxBuildN legitimately run for minutes, so this is far above the query
// client's timeout.
const DefaultBuildTimeout = 15 * time.Minute

// DefaultRetryBackoff is the base delay before a failover retry; attempt n
// waits roughly base·2^(n−1) with ±50% jitter.
const DefaultRetryBackoff = 5 * time.Millisecond

// DefaultMaxRetryBackoff caps the exponential growth of retry backoff.
const DefaultMaxRetryBackoff = 100 * time.Millisecond

// RouterOptions tunes a Router.
type RouterOptions struct {
	// HedgeDelay before a point query is hedged to the next replica;
	// DefaultHedgeDelay when 0, negative disables hedging (failover on
	// error still happens).
	HedgeDelay time.Duration
	// Client used for the HTTP control plane (/stats, /metrics.json,
	// /handoff/keys); a default with sane timeouts when nil. Queries and
	// mutations travel over the binary protocol. /build fan-outs use a
	// dedicated timeout-free client bounded by BuildTimeout instead — a big
	// build must not be killed by the query timeout.
	Client *http.Client
	// BuildTimeout bounds one /build fan-out (DefaultBuildTimeout when 0).
	BuildTimeout time.Duration
	// ID reported by /healthz and /stats.
	ID string
	// DefaultBudget is the deadline budget applied to query requests that
	// arrive without an X-Ftbfs-Budget-Ms header; 0 leaves them bounded only
	// by the wire client's request timeout. The remaining budget
	// re-propagates to every shard attempt (the wire frame's budget field),
	// so no attempt outlives the request that asked for it.
	DefaultBudget time.Duration
	// RetryBackoff is the base delay between failover retries: attempt n
	// waits roughly base·2^(n−1) with ±50% jitter, capped at MaxRetryBackoff
	// and at the request's remaining budget. DefaultRetryBackoff when 0;
	// negative disables backoff (retries fire immediately, as they did
	// before backoff existed — tests use this for speed).
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the exponential growth (DefaultMaxRetryBackoff
	// when 0).
	MaxRetryBackoff time.Duration
	// BreakerThreshold is how many consecutive request failures trip a
	// replica's circuit breaker open (DefaultBreakerThreshold when 0).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before arming a
	// half-open probe (DefaultBreakerCooldown when 0).
	BreakerCooldown time.Duration
	// TraceSample traces every Nth point query end to end: the router opens
	// a trace, the shard attempt carries it (the wire frame's trace field),
	// the shard's spans come back in the response frame and fold into the
	// router's record, and the finished trace lands in the ring behind
	// /debug/traces. 0 disables sampling; requests arriving with an
	// X-Ftbfs-Trace header are traced regardless.
	TraceSample int
}

// Router fronts a shard cluster with the same HTTP surface a single shard
// serves, so clients cannot tell one node from forty. Every query and
// mutation converts to wire form once (internal/server) and reaches the
// shards over the binary protocol only: point queries go to the key's
// replica set with hedged reads; /batch-query vectors scatter as one
// sub-batch per shard and gather per-query results with failover; /mutate
// fans out to every member. /build fans out over HTTP to every owning
// replica exactly once (single-flight).
type Router struct {
	m     *Membership
	mux   *http.ServeMux
	opts  RouterOptions
	start time.Time

	// buildClient has no client-level timeout: /build fan-outs are bounded
	// by the BuildTimeout context, not by the query client's deadline.
	buildClient *http.Client

	buildFlight  flightGroup
	mutateFlight flightGroup

	// rm holds every routing counter and histogram (metrics.go); /stats and
	// /metrics read the same registry-backed series.
	rm       *routerMetrics
	traces   *telemetry.TraceRing
	pointSeq atomic.Uint64 // point queries seen, drives TraceSample
	draining atomic.Bool

	// hotMu guards the point-path hit counts and the promoted set behind
	// R+k replication (rebalance.go). The map is size-capped: tracking is a
	// sampling heuristic, not an exact census.
	hotMu    sync.Mutex
	hotHits  map[store.Key]uint64
	promoted map[store.Key]int
}

// NewRouter returns a router over the given membership.
func NewRouter(m *Membership, opts RouterOptions) *Router {
	if opts.HedgeDelay == 0 {
		opts.HedgeDelay = DefaultHedgeDelay
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.BuildTimeout == 0 {
		opts.BuildTimeout = DefaultBuildTimeout
	}
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = DefaultRetryBackoff
	}
	if opts.MaxRetryBackoff == 0 {
		opts.MaxRetryBackoff = DefaultMaxRetryBackoff
	}
	m.SetBreakerConfig(opts.BreakerThreshold, opts.BreakerCooldown)
	rt := &Router{
		m:           m,
		mux:         http.NewServeMux(),
		opts:        opts,
		start:       time.Now(),
		buildClient: &http.Client{Transport: opts.Client.Transport},
		hotHits:     make(map[store.Key]uint64),
		promoted:    make(map[store.Key]int),
	}
	routes := []struct {
		path    string
		handler http.HandlerFunc
	}{
		{"/build", rt.handleBuild},
		{"/mutate", rt.handleMutate},
		{"/dist", rt.handlePoint},
		{"/dist-avoiding", rt.handlePoint},
		// The vertex failure model rides the same point machinery: the request
		// resolves to its vertex-model registry key (QueryRequest.Wire — the
		// endpoint, not a request field, picks the failure model), lands on that
		// key's replica set, and gets the same hedged reads + failover.
		{"/dist-avoiding-vertex", rt.handlePoint},
		{"/batch-query", rt.handleBatchQuery},
		{"/stats", rt.handleStats},
		{"/healthz", rt.handleHealthz},
		{"/readyz", rt.handleReadyz},
		{"/metrics", rt.handleMetrics},
		{"/metrics/fleet", rt.handleMetricsFleet},
	}
	paths := make([]string, 0, len(routes)+1)
	for _, route := range routes {
		rt.mux.HandleFunc(route.path, route.handler)
		paths = append(paths, route.path)
	}
	rt.traces = telemetry.NewTraceRing(256, 0)
	rt.mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		rt.traces.ServeHTTP(w, r)
	})
	rt.rm = newRouterMetrics(m, append(paths, "/debug/traces"))
	return rt
}

// Membership exposes the router's shard set (join/leave, probing).
func (rt *Router) Membership() *Membership { return rt.m }

// SetDraining flips the router's /readyz gate; server.Serve calls it on
// graceful shutdown.
func (rt *Router) SetDraining(v bool) { rt.draining.Store(v) }

// pointPath reports whether the route is a point query — the only routes
// TraceSample samples (they are the latency-sensitive plane worth tracing).
func pointPath(path string) bool {
	switch path {
	case "/dist", "/dist-avoiding", "/dist-avoiding-vertex":
		return true
	}
	return false
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.rm.requests.Inc()
	start := time.Now()
	if r.Body != nil {
		// Same bound as the shards: the two tiers must agree on what is an
		// acceptable body.
		r.Body = http.MaxBytesReader(w, r.Body, server.MaxBodyBytes)
	}
	// Deadline budget: an explicit X-Ftbfs-Budget-Ms header wins, else the
	// router's configured default. The budget becomes the request context's
	// deadline; every shard attempt below re-propagates what remains of it,
	// so no attempt (or backoff sleep) outlives the caller's patience.
	// /build is exempt by construction — its fan-out detaches via
	// WithoutCancel and is bounded by BuildTimeout instead.
	budget := rt.opts.DefaultBudget
	if h := r.Header.Get(server.BudgetHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			budget = time.Duration(ms) * time.Millisecond
		}
	}
	if budget > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		r = r.WithContext(ctx)
	}
	// Tracing: a caller-supplied X-Ftbfs-Trace header always traces; else
	// TraceSample traces every Nth point query. The trace rides the request
	// context so every shard attempt propagates the ID, and the shard's
	// spans fold back in from its response (wireCall, forward).
	var tr *telemetry.Trace
	if id, ok := telemetry.ParseTraceID(r.Header.Get(telemetry.TraceHeader)); ok {
		tr = telemetry.NewTrace(id)
	} else if n := rt.opts.TraceSample; n > 0 && pointPath(r.URL.Path) && rt.pointSeq.Add(1)%uint64(n) == 0 {
		tr = telemetry.NewTrace(0)
	}
	if tr == nil {
		sw := clusterStatusWriter{ResponseWriter: w}
		rt.mux.ServeHTTP(&sw, r)
		rt.rm.observeHTTP(r.URL.Path, start, sw.status)
		return
	}
	r = r.WithContext(telemetry.WithTrace(r.Context(), tr))
	bw := &clusterBufferedWriter{clusterStatusWriter: clusterStatusWriter{ResponseWriter: w}}
	rt.mux.ServeHTTP(bw, r)
	tr.Add("router.handle", start)
	bw.Header().Set(telemetry.SpanHeader, tr.SpansJSON())
	bw.flush()
	rt.traces.Record(tr, r.URL.Path, time.Since(start))
	rt.rm.observeHTTP(r.URL.Path, start, bw.status)
}

// backoffDelay returns the jittered exponential delay before retry `attempt`
// (1-based): base·2^(attempt−1), capped, then jittered to 50–100% so
// replicas retrying in lockstep spread out.
func (rt *Router) backoffDelay(attempt int) time.Duration {
	base, ceil := rt.opts.RetryBackoff, rt.opts.MaxRetryBackoff
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// sleepBackoff waits the retry delay, bounded by the request's remaining
// budget. Returns false when the budget expired — the caller must stop
// retrying rather than fire an attempt the client has already given up on.
func (rt *Router) sleepBackoff(ctx context.Context, attempt int) bool {
	d := rt.backoffDelay(attempt)
	if d <= 0 {
		return ctx.Err() == nil
	}
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return false
		}
		if d > rem {
			d = rem
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// retryableStatus reports whether a shard's HTTP status may legitimately
// differ on another replica: 404 is absent shard state (the shard maps an
// unknown graph to server.UnknownGraphError — a cold replica may simply not
// have it yet) and 5xx is a node fault. Any other 4xx is a deterministic
// client error every replica would repeat, so it is relayed without burning
// the remaining replicas.
func retryableStatus(code int) bool {
	return code == http.StatusNotFound || code >= http.StatusInternalServerError
}

// retryableSlotError is retryableStatus for per-slot /batch-query errors,
// which travel as strings inside a 200 response: it matches the slot errors
// that reflect shard state rather than a verdict on the query — an unknown
// graph (cold replica, server.UnknownGraphPrefix) and a persist-directory
// fault (broken disk, store.PersistPrefix; the point path retries the same
// condition via its 500 status).
func retryableSlotError(msg string) bool {
	return strings.HasPrefix(msg, server.UnknownGraphPrefix) || strings.HasPrefix(msg, store.PersistPrefix)
}

func (rt *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (rt *Router) writeErr(w http.ResponseWriter, code int, err error) {
	rt.writeMsg(w, code, err.Error())
}

// writeMsg writes an error reply exactly as a single node words it.
func (rt *Router) writeMsg(w http.ResponseWriter, code int, msg string) {
	rt.rm.errs.Inc()
	rt.writeJSON(w, code, map[string]string{"error": msg})
}

// writeDist writes a point answer, byte-identical to a single node's.
func (rt *Router) writeDist(w http.ResponseWriter, d int32) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	b := append(make([]byte, 0, 24), `{"dist":`...)
	b = strconv.AppendInt(b, int64(d), 10)
	_, _ = w.Write(append(b, "}\n"...))
}

// writeRaw relays a buffered upstream response verbatim.
func (rt *Router) writeRaw(w http.ResponseWriter, code int, body []byte) {
	if code >= http.StatusBadRequest {
		rt.rm.errs.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// errNoShard is hedgedDo's answer when not a single attempt ran.
var errNoShard = errors.New("cluster: no shard available")

// wireCall runs one binary-protocol request against m — the only way the
// router reaches a shard for points, batches and mutations; call does the
// request on m's pooled client. A traced request gives the attempt a span
// log of its own under the same trace ID, and the spans the shard's response
// carries back are folded into the request's trace under m's ID. A transport
// fault (dead listener, unknown wire address, corrupted frame) is a failed
// attempt: counted in wire_fallbacks and struck against m's health and
// breaker, unless the caller's context ended first (a hedge loser or a
// caller that gave up is no fault of the shard). An in-protocol answer is
// counted under answered and scores m by its status, as an HTTP reply would.
func (rt *Router) wireCall(ctx context.Context, m *Member, answered *telemetry.Counter, call func(context.Context, *wire.Client) (*wire.Error, error)) (*wire.Error, error) {
	var werr *wire.Error
	var err error
	start := time.Now()
	if wc := m.wireClient(); wc == nil {
		err = fmt.Errorf("shard %s: no wire address known", m.ID)
	} else if tr := telemetry.TraceFrom(ctx); tr != nil {
		sub := telemetry.NewTrace(tr.ID())
		werr, err = call(telemetry.WithTrace(ctx, sub), wc)
		tr.Fold(m.ID, sub.Spans())
	} else {
		werr, err = call(ctx, wc)
	}
	if err != nil {
		if ctx.Err() == nil {
			rt.rm.wireFallbacks.Inc()
			m.markRequest(false, downAfter)
		}
		return nil, err
	}
	answered.Inc()
	rt.rm.observeReplica(m.ID, "wire", time.Since(start))
	m.markRequest(werr == nil || werr.Code < http.StatusInternalServerError, downAfter)
	return werr, nil
}

// forward sends one buffered HTTP request to a member and reads the reply —
// the control and ops plane only (/build, /stats, /metrics.json,
// /handoff/keys). Health is only updated on real outcomes: a caller that
// cancelled must not count against the shard.
func (rt *Router) forward(ctx context.Context, client *http.Client, m *Member, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.Addr()+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate what remains of the deadline budget so the shard can shed or
	// time the request out itself instead of answering into a void. Ceil-ms:
	// a still-live budget must never round down to "none".
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return 0, nil, context.DeadlineExceeded
		}
		req.Header.Set(server.BudgetHeader, strconv.FormatInt(int64((rem+time.Millisecond-1)/time.Millisecond), 10))
	}
	tr := telemetry.TraceFrom(ctx)
	if tr != nil {
		req.Header.Set(telemetry.TraceHeader, tr.IDString())
	}
	attemptStart := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			m.markRequest(false, downAfter)
		}
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() == nil {
			m.markRequest(false, downAfter)
		}
		return 0, nil, err
	}
	rt.rm.observeReplica(m.ID, "http", time.Since(attemptStart))
	if spans := resp.Header.Get(telemetry.SpanHeader); tr != nil && spans != "" {
		var shardSpans []telemetry.Span
		if json.Unmarshal([]byte(spans), &shardSpans) == nil {
			tr.Fold(m.ID, shardSpans)
		}
	}
	// A 5xx is a request strike: a shard consistently failing requests
	// (broken persist directory, wedged store) must drift to the back of
	// the attempt order even though it still answers. A sub-5xx response
	// clears only the request signal — probe-owned readiness stays put, so
	// a draining shard serving its in-flight traffic is still drained out
	// by its 503 /readyz probes.
	m.markRequest(resp.StatusCode < http.StatusInternalServerError, downAfter)
	return resp.StatusCode, b, nil
}

// orderedOwners returns the key's replica set, healthy members first but
// otherwise in ring order, so the primary is sticky (its oracle pool stays
// hot) while down replicas drop to last-resort attempts.
func (rt *Router) orderedOwners(keyHash uint64) []*Member {
	owners := rt.m.Owners(keyHash)
	sort.SliceStable(owners, func(i, j int) bool {
		return owners[i].Healthy() && !owners[j].Healthy()
	})
	return owners
}

// ownersFor is orderedOwners for a resolved structure key, widened to R+k
// when the key has been promoted hot (rebalance.go): the extra owners were
// pre-loaded by PromoteHot, so routing to them serves from a handed-off
// structure, not a cold build.
func (rt *Router) ownersFor(k store.Key) []*Member {
	n := rt.m.Replicas()
	rt.hotMu.Lock()
	n += rt.promoted[k]
	rt.hotMu.Unlock()
	owners := rt.m.OwnersN(KeyHash(k), n)
	sort.SliceStable(owners, func(i, j int) bool {
		return owners[i].Healthy() && !owners[j].Healthy()
	})
	return owners
}

// maxTrackedKeys caps the hot-key hit map; when full it resets rather than
// evicting — hotness re-accumulates in a few seconds of traffic, and a
// reset is cheaper than bookkeeping an LRU on the point path.
const maxTrackedKeys = 8192

// noteKey records one routed query against the key's hit count.
func (rt *Router) noteKey(k store.Key) {
	rt.hotMu.Lock()
	if len(rt.hotHits) >= maxTrackedKeys {
		rt.hotHits = make(map[store.Key]uint64)
	}
	rt.hotHits[k]++
	rt.hotMu.Unlock()
}

// pointResult is one point attempt's outcome: a distance, the shard's
// in-protocol refusal, or a transport error.
type pointResult struct {
	dist int32
	werr *wire.Error
	err  error
}

// pointAttempt sends one point query to m over the binary protocol.
func (rt *Router) pointAttempt(ctx context.Context, m *Member, typ byte, q *wire.PointQuery) pointResult {
	var res pointResult
	res.werr, res.err = rt.wireCall(ctx, m, rt.rm.wirePoints, func(ctx context.Context, wc *wire.Client) (*wire.Error, error) {
		var werr *wire.Error
		var err error
		res.dist, werr, err = wc.Point(ctx, typ, q)
		return werr, err
	})
	return res
}

// hedgedDo tries the owners in order until one answers: the primary first,
// the next replica when the hedge timer fires before the primary answers,
// and failover on transport faults and retryable statuses (404
// unknown-graph shard state, 5xx) after a jittered exponential backoff
// bounded by the remaining budget. Owners whose circuit breaker is open are
// skipped — unless every owner's is, in which case one attempt is forced
// (an answer beats a guaranteed refusal, and the outcome feeds the
// breaker). A deterministic client error (any other 4xx) is relayed
// immediately — every replica would repeat it; a retryable status is
// remembered and relayed only when every replica says no.
func (rt *Router) hedgedDo(ctx context.Context, owners []*Member, typ byte, q *wire.PointQuery) pointResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan pointResult, len(owners))
	next, pending := 0, 0
	fire := func(m *Member) {
		pending++
		go func() { results <- rt.pointAttempt(ctx, m, typ, q) }()
	}
	launch := func() bool {
		for next < len(owners) {
			m := owners[next]
			next++
			if !m.breakerAllow() {
				rt.rm.breakerSkips.Inc()
				continue
			}
			fire(m)
			return true
		}
		return false
	}
	if !launch() {
		// Every owner's breaker is open: force the primary anyway.
		rt.rm.breakerForced.Inc()
		fire(owners[0])
	}
	var hedgeC <-chan time.Time
	if rt.opts.HedgeDelay > 0 && len(owners) > 1 {
		tm := time.NewTimer(rt.opts.HedgeDelay)
		defer tm.Stop()
		hedgeC = tm.C
	}
	last := pointResult{err: errNoShard}
	retries := 0
	for pending > 0 {
		select {
		case res := <-results:
			pending--
			if res.err == nil && (res.werr == nil || !retryableStatus(res.werr.Code)) {
				return res // an answer, or a deterministic client error relayed as-is
			}
			// Prefer a definitive shard reply over a transport error as the
			// answer of last resort.
			if res.err == nil || last.werr == nil {
				last = res
			}
			if next >= len(owners) {
				if pending == 0 {
					return last
				}
				continue
			}
			retries++
			if !rt.sleepBackoff(ctx, retries) {
				// Budget exhausted mid-backoff: no further attempts; any
				// stragglers still pending fail fast on the dead context.
				if pending == 0 {
					return last
				}
				continue
			}
			if launch() {
				rt.rm.failovers.Inc()
			} else if pending == 0 {
				return last
			}
		case <-hedgeC:
			hedgeC = nil
			if launch() {
				rt.rm.hedges.Inc()
			}
		}
	}
	return last
}

// handlePoint routes /dist, /dist-avoiding and /dist-avoiding-vertex: the
// request converts to wire form (server.QueryRequest.Wire, which also
// resolves the structure key), hedges across the key's replica set, and the
// winner's answer is written as a single node would write it.
func (rt *Router) handlePoint(w http.ResponseWriter, r *http.Request) {
	q, err := server.ParseQuery(r)
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, err)
		return
	}
	k, typ, pq, err := q.Wire(r.URL.Path)
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, err)
		return
	}
	owners := rt.ownersFor(k)
	if len(owners) == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("cluster: no shards joined"))
		return
	}
	rt.rm.points.Inc()
	rt.noteKey(k)
	res := rt.hedgedDo(r.Context(), owners, typ, &pq)
	switch {
	case res.err != nil:
		code := http.StatusBadGateway
		if errors.Is(res.err, context.DeadlineExceeded) || r.Context().Err() != nil {
			// The budget ran out, not the replicas: answer 504 like a shard
			// would, so callers can tell "too slow" from "all dead".
			code = http.StatusGatewayTimeout
		}
		rt.writeErr(w, code, fmt.Errorf("cluster: all %d replicas failed: %w", len(owners), res.err))
	case res.werr != nil:
		rt.writeMsg(w, res.werr.Code, res.werr.Msg)
	default:
		rt.writeDist(w, res.dist)
	}
}

// handleBatchQuery scatter-gathers a multi-structure batch: route every
// query slot by its structure key, ship one sub-batch per shard, and merge
// per-query results. A failed shard's slots fail over to the next replica;
// only slots whose whole replica set failed come back with error slots.
func (rt *Router) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req server.BatchQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rt.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return
	}
	n := len(req.Queries)
	if n == 0 {
		rt.writeErr(w, http.StatusBadRequest, fmt.Errorf("empty query vector"))
		return
	}
	rt.rm.batches.Inc()
	rt.rm.batchQueries.Add(uint64(n))

	dists := make([]int, n)
	errs := make([]string, n)
	// Every slot converts to wire form once; sub-batches are gathered from
	// these slots, whichever replica each round picks.
	slots := make([]wire.BatchSlot, n)
	type route struct {
		owners []*Member
		tried  int // owners[:tried] already attempted
	}
	routes := make([]*route, n)
	var pending []int
	// One ring walk per distinct key, not per slot — a 256-slot batch over
	// 16 structures resolves 16 owner sets. Each slot still gets its own
	// copy: the least-loaded selection below reorders it in place.
	ownersByKey := make(map[store.Key][]*Member)
	for i := 0; i < n; i++ {
		dists[i] = -1
		k, slot, err := req.WireSlot(i)
		if err != nil {
			errs[i] = err.Error()
			continue
		}
		slots[i] = slot
		base, cached := ownersByKey[k]
		if !cached {
			base = rt.ownersFor(k)
			ownersByKey[k] = base
		}
		rt.noteKey(k)
		if len(base) == 0 {
			errs[i] = "cluster: no shards joined"
			continue
		}
		owners := make([]*Member, len(base))
		copy(owners, base)
		routes[i] = &route{owners: owners}
		pending = append(pending, i)
	}

	// Each round ships at most one sub-batch per shard; slots whose attempt
	// failed (transport, shard error, or per-slot error) advance to their
	// next replica. Rounds are bounded by the replication factor. Unlike
	// point queries (which stick to the primary for oracle-pool locality),
	// batch slots pick the least-loaded untried replica of their key, so a
	// few hot structures cannot pile the whole vector onto one shard —
	// every replica holds the structure, so any of them answers correctly.
	load := make(map[*Member]int)
	for round := 0; len(pending) > 0 && round < rt.m.Replicas(); round++ {
		if round > 0 && !rt.sleepBackoff(r.Context(), round) {
			// Budget exhausted between rounds: pending slots keep the error
			// their last attempt recorded.
			break
		}
		type subBatch struct {
			member *Member
			slots  []int
		}
		var subs []*subBatch
		byMember := make(map[*Member]*subBatch)
		var exhausted []int
		for _, i := range pending {
			rte := routes[i]
			if rte.tried >= len(rte.owners) {
				exhausted = append(exhausted, i)
				continue
			}
			// Graceful degradation: when every remaining replica of this
			// slot's key has an open breaker, fail the slot now instead of
			// feeding a sub-batch to shards known to be failing — the rest of
			// the vector still answers. (Batch selection reads breaker state
			// without consuming half-open probe tokens; the point path and
			// readiness probes drive recovery.)
			allOpen := true
			for j := rte.tried; j < len(rte.owners); j++ {
				if !rte.owners[j].breakerOpen() {
					allOpen = false
					break
				}
			}
			if allOpen {
				rt.rm.breakerSkips.Inc()
				if errs[i] == "" {
					errs[i] = fmt.Sprintf("cluster: circuit open: all %d replicas unavailable", len(rte.owners))
				}
				continue
			}
			best := rte.tried
			for j := rte.tried + 1; j < len(rte.owners); j++ {
				cand, cur := rte.owners[j], rte.owners[best]
				if cand.breakerOpen() != cur.breakerOpen() {
					if !cand.breakerOpen() {
						best = j
					}
					continue
				}
				if cand.Healthy() != cur.Healthy() {
					if cand.Healthy() {
						best = j
					}
					continue
				}
				if load[cand] < load[cur] {
					best = j
				}
			}
			rte.owners[rte.tried], rte.owners[best] = rte.owners[best], rte.owners[rte.tried]
			m := rte.owners[rte.tried]
			rte.tried++
			load[m]++
			sb := byMember[m]
			if sb == nil {
				sb = &subBatch{member: m}
				byMember[m] = sb
				subs = append(subs, sb)
			}
			sb.slots = append(sb.slots, i)
		}
		for _, i := range exhausted {
			if errs[i] == "" {
				errs[i] = "cluster: all replicas failed"
			}
		}
		if round > 0 {
			rt.rm.failovers.Add(uint64(len(subs)))
		}

		var mu sync.Mutex
		var nextPending []int
		var wg sync.WaitGroup
		for _, sb := range subs {
			sb := sb
			wg.Add(1)
			go func() {
				defer wg.Done()
				sub := make([]wire.BatchSlot, len(sb.slots))
				for j, i := range sb.slots {
					sub[j] = slots[i]
				}
				var sdists []int32
				var serrs []string
				werr, err := rt.wireCall(r.Context(), sb.member, rt.rm.wireBatches, func(ctx context.Context, wc *wire.Client) (*wire.Error, error) {
					var werr *wire.Error
					var err error
					sdists, serrs, werr, err = wc.Batch(ctx, sub)
					return werr, err
				})
				mu.Lock()
				defer mu.Unlock()
				if err != nil || werr != nil {
					// Whole sub-batch failed. Only a deterministic 4xx (a
					// malformed sub-request every replica would repeat)
					// fails its slots in place; transport faults and
					// retryable statuses are shard-specific, so those slots
					// go to the next replica.
					var msg string
					retry := true
					if err != nil {
						msg = fmt.Sprintf("cluster: shard %s: %v", sb.member.ID, err)
					} else {
						msg = fmt.Sprintf("cluster: shard %s: status %d: %s", sb.member.ID, werr.Code, werr.Msg)
						retry = retryableStatus(werr.Code)
					}
					for _, i := range sb.slots {
						if errs[i] == "" {
							errs[i] = msg
						}
						if retry {
							nextPending = append(nextPending, i)
						}
					}
					return
				}
				for j, i := range sb.slots {
					if e := serrs[j]; e != "" {
						// Per-slot error: cold-replica shard state retries
						// on the next replica (keeping the first message in
						// case every replica is cold); a verdict on the
						// query itself is final and overwrites whatever
						// provisional failover message an earlier dead
						// replica left behind.
						if retryableSlotError(e) {
							if errs[i] == "" {
								errs[i] = e
							}
							nextPending = append(nextPending, i)
						} else {
							errs[i] = e
						}
						continue
					}
					dists[i] = int(sdists[j])
					errs[i] = ""
				}
			}()
		}
		wg.Wait()
		pending = nextPending
	}

	resp := server.BatchQueryResponse{Dists: dists}
	for _, e := range errs {
		if e != "" {
			resp.Errors = errs
			break
		}
	}
	rt.writeJSON(w, http.StatusOK, resp)
}

// handleBuild fans a /build out to every shard owning any of its requested
// structures, exactly once per logical build: concurrent identical requests
// coalesce on a single-flight key of (fingerprint, algorithm, pairs).
func (rt *Router) handleBuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req server.BuildRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rt.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return
	}
	g, err := server.GraphFromBuildRequest(&req)
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, err)
		return
	}
	alg, err := core.ParseAlgorithm(req.Alg)
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, err)
		return
	}
	pairs := req.ResolvedPairs()
	fp := g.Fingerprint()
	flightKey := fmt.Sprintf("%016x|%d|%v|v%v", fp, alg, pairs, req.VertexSources)
	res, shared := rt.buildFlight.Do(flightKey, func() flightResult {
		rt.rm.builds.Inc()
		// The fan-out is shared work: coalesced waiters must not lose their
		// build because the first caller hung up, so it is detached from
		// any one request's cancellation and bounded by BuildTimeout alone.
		ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), rt.opts.BuildTimeout)
		defer cancel()
		return rt.fanOutBuild(ctx, g, &req, alg, pairs)
	})
	if shared {
		rt.rm.buildsCoalesced.Inc()
	}
	if res.code == 0 {
		// The flight died without producing a response (a panic in the
		// fan-out); waiters must not relay an invalid status 0.
		rt.writeErr(w, http.StatusBadGateway, fmt.Errorf("cluster: build fan-out failed"))
		return
	}
	rt.writeRaw(w, res.code, res.body)
}

// fanOutBuild ships one /build per involved shard, each carrying exactly
// the (source, ε) pairs that shard owns, and merges the per-shard replies
// into one BuildResponse in request-pair order. A pair succeeds when any of
// its replicas built it; a pair whose whole replica set failed fails the
// build.
func (rt *Router) fanOutBuild(ctx context.Context, g buildGraph, req *server.BuildRequest, alg ftbfs.Algorithm, pairs []server.BuildPair) flightResult {
	fail := func(code int, err error) flightResult {
		body, _ := json.Marshal(map[string]string{"error": err.Error()})
		return flightResult{code: code, body: body}
	}
	// Re-encode once: the canonical text preserves edge order, so every
	// shard computes the same fingerprint the router routed on.
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		return fail(http.StatusInternalServerError, err)
	}
	fp := g.Fingerprint()

	type shardBuild struct {
		member   *Member
		pairs    []server.BuildPair
		index    map[server.BuildPair]int // pair -> position in pairs
		vsources []int
		vindex   map[int]int // vertex source -> position in vsources
		resp     server.BuildResponse
		err      error
		code     int // HTTP status behind err, 0 for transport faults
	}
	var shards []*shardBuild
	byMember := make(map[*Member]*shardBuild)
	shardFor := func(m *Member) *shardBuild {
		sb := byMember[m]
		if sb == nil {
			sb = &shardBuild{member: m, index: make(map[server.BuildPair]int), vindex: make(map[int]int)}
			byMember[m] = sb
			shards = append(shards, sb)
		}
		return sb
	}
	pairOwners := make([][]*Member, len(pairs))
	for i, p := range pairs {
		// Builds route on the same registry key as queries; algorithm
		// differences are part of the key, so a mixed-alg workload shards
		// consistently. Replication ignores health: a down replica simply
		// fails its sub-request and the pair survives on the others.
		k := store.Key{Graph: fp, Source: p.Source, Eps: p.Eps, Alg: alg}
		owners := rt.m.Owners(KeyHash(k))
		if len(owners) == 0 {
			return fail(http.StatusServiceUnavailable, fmt.Errorf("cluster: no shards joined"))
		}
		pairOwners[i] = owners
		for _, m := range owners {
			sb := shardFor(m)
			if _, dup := sb.index[p]; !dup {
				sb.index[p] = len(sb.pairs)
				sb.pairs = append(sb.pairs, p)
			}
		}
	}
	// Vertex structures route on their own vertex-model keys, so their
	// owners are generally different shards than any edge pair's — which is
	// exactly what makes the graph reach every shard a later
	// /dist-avoiding-vertex can land on.
	vsrcOwners := make([][]*Member, len(req.VertexSources))
	for i, src := range req.VertexSources {
		owners := rt.m.Owners(KeyHash(store.VertexKey(fp, src)))
		if len(owners) == 0 {
			return fail(http.StatusServiceUnavailable, fmt.Errorf("cluster: no shards joined"))
		}
		vsrcOwners[i] = owners
		for _, m := range owners {
			sb := shardFor(m)
			if _, dup := sb.vindex[src]; !dup {
				sb.vindex[src] = len(sb.vsources)
				sb.vsources = append(sb.vsources, src)
			}
		}
	}

	var wg sync.WaitGroup
	for _, sb := range shards {
		sb := sb
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, err := json.Marshal(&server.BuildRequest{
				Graph:         text.String(),
				Pairs:         sb.pairs,
				Alg:           req.Alg,
				VertexSources: sb.vsources,
			})
			if err != nil {
				sb.err = err
				return
			}
			code, body, err := rt.forward(ctx, rt.buildClient, sb.member, http.MethodPost, "/build", payload)
			switch {
			case err != nil:
				sb.err = err
			case code != http.StatusOK:
				sb.err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
				sb.code = code
			default:
				sb.err = json.Unmarshal(body, &sb.resp)
				if sb.err == nil && len(sb.resp.Structures) != len(sb.pairs) {
					sb.err = fmt.Errorf("shard built %d of %d structures", len(sb.resp.Structures), len(sb.pairs))
				}
				if sb.err == nil && len(sb.resp.VertexStructures) != len(sb.vsources) {
					sb.err = fmt.Errorf("shard built %d of %d vertex structures", len(sb.resp.VertexStructures), len(sb.vsources))
				}
			}
		}()
	}
	wg.Wait()

	out := server.BuildResponse{Fingerprint: fmt.Sprintf("%016x", fp), N: g.N(), M: g.M()}
	for i, p := range pairs {
		var info *server.StructureInfo
		var firstErr error
		firstCode := 0
		for _, m := range pairOwners[i] {
			sb := byMember[m]
			if sb.err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("shard %s: %w", m.ID, sb.err)
					firstCode = sb.code
				}
				continue
			}
			info = &sb.resp.Structures[sb.index[p]]
			break
		}
		if info == nil {
			// A deterministic 4xx (bad source, bad eps) is the client's
			// error on every replica and is relayed as such — matching what
			// a single node would answer; anything else is a gateway fault.
			code := http.StatusBadGateway
			if firstCode >= http.StatusBadRequest && firstCode < http.StatusInternalServerError && !retryableStatus(firstCode) {
				code = firstCode
			}
			return fail(code,
				fmt.Errorf("cluster: build (source=%d, eps=%g) failed on all %d replicas: %w",
					p.Source, p.Eps, len(pairOwners[i]), firstErr))
		}
		out.Structures = append(out.Structures, *info)
	}
	for i, src := range req.VertexSources {
		var info *server.VertexStructureInfo
		var firstErr error
		firstCode := 0
		for _, m := range vsrcOwners[i] {
			sb := byMember[m]
			if sb.err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("shard %s: %w", m.ID, sb.err)
					firstCode = sb.code
				}
				continue
			}
			info = &sb.resp.VertexStructures[sb.vindex[src]]
			break
		}
		if info == nil {
			code := http.StatusBadGateway
			if firstCode >= http.StatusBadRequest && firstCode < http.StatusInternalServerError && !retryableStatus(firstCode) {
				code = firstCode
			}
			return fail(code,
				fmt.Errorf("cluster: vertex build (source=%d) failed on all %d replicas: %w",
					src, len(vsrcOwners[i]), firstErr))
		}
		out.VertexStructures = append(out.VertexStructures, *info)
	}
	body, err := json.Marshal(&out)
	if err != nil {
		return fail(http.StatusInternalServerError, err)
	}
	return flightResult{code: http.StatusOK, body: body}
}

// handleMutate fans an edge-mutation batch out to every shard holding the
// graph's lineage. Structures of one lineage hash per-source across the whole
// ring, so the router cannot enumerate which shards hold state for it — the
// batch goes to every member, and shards that never saw the graph answer 404,
// which is tolerated as long as at least one shard applied the batch. The
// fan-out is single-flight per (lineage, batch): concurrent identical
// requests — a client retry racing its own slow original — coalesce instead
// of double-applying, which would fail the retry with "edge already absent".
func (rt *Router) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req server.MutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rt.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return
	}
	// The same conversion the shards' own /mutate runs, so a malformed batch
	// is rejected with a single node's 400 before any shard does work.
	lineage, muts, err := req.Wire()
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, err)
		return
	}
	flightKey := fmt.Sprintf("mut|%016x|%v", lineage, req.Mutations)
	res, shared := rt.mutateFlight.Do(flightKey, func() flightResult {
		rt.rm.mutations.Inc()
		// Like /build, the fan-out is shared work detached from any one
		// request's cancellation: a batch applied on some shards but not
		// others leaves the lineage split across generations, so once the
		// fan-out starts it runs to its own BuildTimeout-bounded end.
		ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), rt.opts.BuildTimeout)
		defer cancel()
		return rt.fanOutMutate(ctx, lineage, muts)
	})
	if shared {
		rt.rm.mutationsCoalesced.Inc()
	}
	if res.code == 0 {
		rt.writeErr(w, http.StatusBadGateway, fmt.Errorf("cluster: mutate fan-out failed"))
		return
	}
	rt.writeRaw(w, res.code, res.body)
}

// fanOutMutate ships the batch to every member over the binary protocol and
// merges the replies. Every applying shard derives the same new generation
// from the same batch, so the merged response carries the common identity
// plus fleet-summed rebuild counts; a genuinely diverging shard (different
// gen or fingerprint) fails the fan-out loudly rather than letting replicas
// silently serve different graphs.
func (rt *Router) fanOutMutate(ctx context.Context, lineage uint64, muts []wire.MutationWire) flightResult {
	fail := func(code int, err error) flightResult {
		body, _ := json.Marshal(map[string]string{"error": err.Error()})
		return flightResult{code: code, body: body}
	}
	members := rt.m.Members()
	if len(members) == 0 {
		return fail(http.StatusServiceUnavailable, fmt.Errorf("cluster: no shards joined"))
	}

	type shardMutate struct {
		member  *Member
		resp    server.MutateResponse
		applied bool
		notHeld bool
		err     error
		code    int // status behind err, 0 for transport faults
	}
	shards := make([]*shardMutate, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		sm := &shardMutate{member: m}
		shards[i] = sm
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res wire.MutateResult
			werr, err := rt.wireCall(ctx, sm.member, rt.rm.wireMutations, func(ctx context.Context, wc *wire.Client) (*wire.Error, error) {
				var werr *wire.Error
				var err error
				res, werr, err = wc.Mutate(ctx, lineage, muts)
				return werr, err
			})
			switch {
			case err != nil:
				// A transport fault fails this shard like any shard error.
				sm.err = err
			case werr == nil:
				sm.resp, sm.applied = server.MutateResponseFrom(res), true
			case werr.Code == http.StatusNotFound:
				sm.notHeld = true
			default:
				sm.err = fmt.Errorf("status %d: %s", werr.Code, werr.Msg)
				sm.code = werr.Code
			}
		}()
	}
	wg.Wait()

	out := server.MutateResponse{Graph: fmt.Sprintf("%016x", lineage)}
	applied := 0
	var firstErr error
	firstCode := 0
	for _, sm := range shards {
		if sm.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %s: %w", sm.member.ID, sm.err)
				firstCode = sm.code
			}
			continue
		}
		if !sm.applied {
			continue
		}
		if applied == 0 {
			out.Gen = sm.resp.Gen
			out.Fingerprint = sm.resp.Fingerprint
		} else if out.Gen != sm.resp.Gen || out.Fingerprint != sm.resp.Fingerprint {
			return fail(http.StatusBadGateway, fmt.Errorf(
				"cluster: mutation diverged: shard %s reached gen %d fp %s, others gen %d fp %s",
				sm.member.ID, sm.resp.Gen, sm.resp.Fingerprint, out.Gen, out.Fingerprint))
		}
		applied++
		out.RebuildsDelta += sm.resp.RebuildsDelta
		out.RebuildsFull += sm.resp.RebuildsFull
	}
	if firstErr != nil {
		// One shard refusing or failing the batch while others applied it
		// splits the lineage across generations; surface it as a gateway
		// fault (or the shards' own deterministic 4xx) so the caller knows
		// convergence is not complete. Queries stay safe either way — every
		// shard serves whichever generation it holds, atomically.
		code := http.StatusBadGateway
		if firstCode >= http.StatusBadRequest && firstCode < http.StatusInternalServerError && !retryableStatus(firstCode) {
			code = firstCode
		}
		return fail(code, fmt.Errorf("cluster: mutate applied on %d of %d shards: %w", applied, len(members), firstErr))
	}
	if applied == 0 {
		return fail(http.StatusNotFound, fmt.Errorf("%s%016x (POST /build first)", server.UnknownGraphPrefix, lineage))
	}
	rt.rm.mutationShards.Add(uint64(applied))
	rt.rm.mutationsDelta.Add(uint64(out.RebuildsDelta))
	rt.rm.mutationsFull.Add(uint64(out.RebuildsFull))
	body, err := json.Marshal(&out)
	if err != nil {
		return fail(http.StatusInternalServerError, err)
	}
	return flightResult{code: http.StatusOK, body: body}
}

// buildGraph is the slice of the root Graph API fanOutBuild needs; keeping
// it an interface lets tests fan out without a full build pipeline.
type buildGraph interface {
	Write(io.Writer) error
	Fingerprint() uint64
	N() int
	M() int
}

// ShardStat is one member's entry in a RouterStatsResponse.
type ShardStat struct {
	ID           string                `json:"id"`
	Addr         string                `json:"addr"`
	Healthy      bool                  `json:"healthy"`
	Probes       uint64                `json:"probes"`
	Breaker      string                `json:"breaker"`                 // closed | open | half-open
	BreakerOpens uint64                `json:"breaker_opens,omitempty"` // lifetime trips
	Stats        *server.StatsResponse `json:"stats,omitempty"`
	Error        string                `json:"error,omitempty"`
}

// RouterStatsResponse is the reply of the router's GET /stats: router-level
// counters plus a gathered per-shard breakdown.
type RouterStatsResponse struct {
	Role            string  `json:"role"`
	ID              string  `json:"id,omitempty"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
	Requests        uint64  `json:"requests"`
	PointQueries    uint64  `json:"point_queries"`
	Batches         uint64  `json:"batches"`
	BatchQueries    uint64  `json:"batch_queries"`
	Builds          uint64  `json:"builds"`
	BuildsCoalesced uint64  `json:"builds_coalesced"`
	Hedges          uint64  `json:"hedges"`
	Failovers       uint64  `json:"failovers"`
	WirePoints      uint64  `json:"wire_points"`
	WireBatches     uint64  `json:"wire_batches"`
	WireMutations   uint64  `json:"wire_mutations"`
	WireFallbacks   uint64  `json:"wire_fallbacks"` // wire transport faults, each followed by a failover

	// Live-graph convergence ledger: mutation fan-outs executed, shard swaps
	// they applied, and how the fleet's rebuild work split between the delta
	// fast path and full rebuilds. A soak asserts MutationRebuildsDelta > 0
	// (the fast path actually engages) alongside zero wrong answers.
	Mutations             uint64 `json:"mutations"`
	MutationsCoalesced    uint64 `json:"mutations_coalesced"`
	MutationShards        uint64 `json:"mutation_shards"`
	MutationRebuildsDelta uint64 `json:"mutation_rebuilds_delta"`
	MutationRebuildsFull  uint64 `json:"mutation_rebuilds_full"`
	BreakerSkips          uint64 `json:"breaker_skips"`
	BreakerForced         uint64 `json:"breaker_forced"`
	Errors                uint64 `json:"errors"`
	Replicas              int    `json:"replicas"`

	// Rebalance state: a churn soak asserts StructuresTransferred > 0 (the
	// transfer actually ran — load-through would mask a broken handoff) and
	// RangesPending == 0 (it finished).
	Rebalances            uint64 `json:"rebalances"`
	RangesPending         int64  `json:"ranges_pending"`
	RangesMoved           uint64 `json:"ranges_moved"`
	StructuresTransferred uint64 `json:"structures_transferred"`
	BytesMoved            uint64 `json:"bytes_moved"`
	HotPromotions         uint64 `json:"hot_promotions"`
	PromotedKeys          int    `json:"promoted_keys"`

	Shards []ShardStat `json:"shards"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rt.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	members := rt.m.Members()
	resp := RouterStatsResponse{
		Role:            "router",
		ID:              rt.opts.ID,
		UptimeSeconds:   time.Since(rt.start).Seconds(),
		Requests:        rt.rm.requests.Value(),
		PointQueries:    rt.rm.points.Value(),
		Batches:         rt.rm.batches.Value(),
		BatchQueries:    rt.rm.batchQueries.Value(),
		Builds:          rt.rm.builds.Value(),
		BuildsCoalesced: rt.rm.buildsCoalesced.Value(),
		Hedges:          rt.rm.hedges.Value(),
		Failovers:       rt.rm.failovers.Value(),
		WirePoints:      rt.rm.wirePoints.Value(),
		WireBatches:     rt.rm.wireBatches.Value(),
		WireMutations:   rt.rm.wireMutations.Value(),
		WireFallbacks:   rt.rm.wireFallbacks.Value(),

		Mutations:             rt.rm.mutations.Value(),
		MutationsCoalesced:    rt.rm.mutationsCoalesced.Value(),
		MutationShards:        rt.rm.mutationShards.Value(),
		MutationRebuildsDelta: rt.rm.mutationsDelta.Value(),
		MutationRebuildsFull:  rt.rm.mutationsFull.Value(),
		BreakerSkips:          rt.rm.breakerSkips.Value(),
		BreakerForced:         rt.rm.breakerForced.Value(),
		Errors:                rt.rm.errs.Value(),
		Replicas:              rt.m.Replicas(),

		Rebalances:            rt.rm.rebalances.Value(),
		RangesPending:         rt.rm.rangesPending.Value(),
		RangesMoved:           rt.rm.rangesMoved.Value(),
		StructuresTransferred: rt.rm.structuresMoved.Value(),
		BytesMoved:            rt.rm.bytesMoved.Value(),
		HotPromotions:         rt.rm.hotPromotions.Value(),

		Shards: make([]ShardStat, len(members)),
	}
	rt.hotMu.Lock()
	resp.PromotedKeys = len(rt.promoted)
	rt.hotMu.Unlock()
	// A wedged shard must not stall the operator's stats call for the full
	// query timeout; it just shows up with an Error field.
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, m := range members {
		i, m := i, m
		bstate, bopens := m.breakerSnapshot()
		resp.Shards[i] = ShardStat{
			ID: m.ID, Addr: m.Addr(), Healthy: m.Healthy(), Probes: m.probes.Load(),
			Breaker: bstate, BreakerOpens: bopens,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, body, err := rt.forward(ctx, rt.opts.Client, m, http.MethodGet, "/stats", nil)
			if err != nil {
				resp.Shards[i].Error = err.Error()
				return
			}
			var st server.StatsResponse
			if err := json.Unmarshal(body, &st); err != nil {
				resp.Shards[i].Error = err.Error()
				return
			}
			resp.Shards[i].Stats = &st
		}()
	}
	wg.Wait()
	rt.writeJSON(w, http.StatusOK, resp)
}

// promContentType is the Prometheus text exposition content type, matching
// what the shards serve.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// handleMetrics serves the router's own registry in Prometheus text form.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	rt.rm.reg.Snapshot().WriteProm(w)
}

// handleMetricsFleet scrapes every member's /metrics.json snapshot in
// parallel (the same forward path and timeout discipline as /stats) and
// serves the merged result: counters sum, histogram buckets add, so a fleet
// quantile is computed over the union of every shard's observations rather
// than averaged per shard.
func (rt *Router) handleMetricsFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rt.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	members := rt.m.Members()
	snaps := make([]*telemetry.Snapshot, len(members))
	// A wedged shard must not stall the scrape; it is simply absent from
	// this merge and counted in ftbfs_fleet_scrape_errors.
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, m := range members {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, err := rt.forward(ctx, rt.opts.Client, m, http.MethodGet, "/metrics.json", nil)
			if err != nil || code != http.StatusOK {
				return
			}
			var s telemetry.Snapshot
			if json.Unmarshal(body, &s) == nil {
				snaps[i] = &s
			}
		}()
	}
	wg.Wait()
	scraped := 0
	for _, s := range snaps {
		if s != nil {
			scraped++
		}
	}
	merged := telemetry.Merge(snaps...)
	merged.Gauges["ftbfs_fleet_scraped_shards"] = int64(scraped)
	merged.Help["ftbfs_fleet_scraped_shards"] = "Shards whose snapshot this merge includes."
	merged.Types["ftbfs_fleet_scraped_shards"] = "gauge"
	merged.Gauges["ftbfs_fleet_scrape_errors"] = int64(len(members) - scraped)
	merged.Help["ftbfs_fleet_scrape_errors"] = "Shards that failed to answer the snapshot scrape."
	merged.Types["ftbfs_fleet_scrape_errors"] = "gauge"
	w.Header().Set("Content-Type", promContentType)
	merged.WriteProm(w)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.writeJSON(w, http.StatusOK, server.HealthResponse{
		OK:            true,
		Role:          "router",
		ID:            rt.opts.ID,
		UptimeSeconds: time.Since(rt.start).Seconds(),
	})
}

// RouterReadyResponse is the reply of the router's GET /readyz: a router is
// ready when it is not draining and at least one shard is healthy.
type RouterReadyResponse struct {
	Ready         bool `json:"ready"`
	Draining      bool `json:"draining,omitempty"`
	Shards        int  `json:"shards"`
	HealthyShards int  `json:"healthy_shards"`
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := RouterReadyResponse{
		Draining:      rt.draining.Load(),
		Shards:        len(rt.m.Members()),
		HealthyShards: rt.m.HealthyCount(),
	}
	resp.Ready = !resp.Draining && resp.HealthyShards > 0
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	rt.writeJSON(w, code, resp)
}
