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
	"slices"
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
// serves, so clients cannot tell one node from forty: it serves the shards'
// own edge (server.Edge) and is its Backend. Every query and mutation
// arrives in wire form and reaches the shards over the binary protocol
// only: point queries go to the key's replica set with hedged reads;
// /batch-query vectors scatter as one sub-batch per shard and gather
// per-query results with failover; /mutate fans out to every member. /build
// builds each structure once over HTTP, on one owner, and the others install
// its record (single-flight).
type Router struct {
	m     *Membership
	edge  *server.Edge
	opts  RouterOptions
	start time.Time

	// buildClient has no client-level timeout: /build fan-outs are bounded
	// by the BuildTimeout context, not by the query client's deadline.
	buildClient *http.Client

	buildFlight  flightGroup[*server.BuildResponse]
	mutateFlight flightGroup[wire.MutateResult]

	// rm holds every routing counter and histogram (metrics.go); /stats and
	// /metrics read the same registry-backed series.
	rm       *routerMetrics
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
		opts:        opts,
		start:       time.Now(),
		buildClient: &http.Client{Transport: opts.Client.Transport},
		rm:          newRouterMetrics(m),
		hotHits:     make(map[store.Key]uint64),
		promoted:    make(map[store.Key]int),
	}
	rt.edge = server.NewEdge(rt, server.EdgeOptions{
		Span:          "router.handle",
		DefaultBudget: opts.DefaultBudget,
		TraceSample:   opts.TraceSample,
		Requests:      rt.rm.requests,
		Errors:        rt.rm.errs,
		Route:         rt.rm.route,
	})
	rt.edge.Handle("/stats", rt.handleStats)
	rt.edge.Handle("/healthz", rt.handleHealthz)
	rt.edge.Handle("/readyz", rt.handleReadyz)
	rt.edge.Handle("/metrics", rt.handleMetrics)
	rt.edge.Handle("/metrics/fleet", rt.handleMetricsFleet)
	return rt
}

// Membership exposes the router's shard set (join/leave, probing).
func (rt *Router) Membership() *Membership { return rt.m }

// SetDraining flips the router's /readyz gate; server.Serve calls it on
// graceful shutdown.
func (rt *Router) SetDraining(v bool) { rt.draining.Store(v) }

// ServeHTTP serves the router's HTTP surface through the shared edge.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.edge.ServeHTTP(w, r) }

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

// finalRefusal reports whether a shard's refusal is a deterministic client
// error: a 4xx other than 404, which every replica would repeat, so a
// request that no shard applied relays it as the shard worded it.
func finalRefusal(werr *wire.Error) bool {
	return werr != nil && werr.Code >= http.StatusBadRequest && werr.Code < http.StatusInternalServerError && !retryableStatus(werr.Code)
}

// errNoShard is hedgedDo's answer when not a single attempt ran.
var errNoShard = errors.New("cluster: no shard available")

// errNoShardsJoined refuses a request that no member could own.
var errNoShardsJoined = &wire.Error{Code: http.StatusServiceUnavailable, Msg: "cluster: no shards joined"}

// start sends one binary-protocol attempt to m on col, labelled tag — the
// only way the router reaches a shard for points, batches and mutations. A
// member whose wire address no probe has learned fails the attempt like a
// dead listener.
func start(col *wire.Collector, m *Member, typ byte, payload []byte, tag int) {
	if wc := m.wireClient(); wc != nil {
		col.Go(wc, typ, payload, tag)
	} else {
		col.Fail(tag, fmt.Errorf("shard %s: no wire address known", m.ID))
	}
}

// settle scores one attempt on m once its call is decoded into werr and
// err. A transport fault (dead listener, unknown wire address, corrupted
// frame) is a failed attempt: counted in wire_fallbacks and struck against
// m's health and breaker, unless the caller's context ended first or the
// request was too large to send (a caller that gave up and an oversized
// request are no fault of the shard). An in-protocol answer is counted
// under answered and scores m by its status, as an HTTP reply would. The
// spans a traced request's response carried back are folded into its trace
// under m's ID.
func (rt *Router) settle(ctx context.Context, m *Member, call *wire.Call, answered *telemetry.Counter, werr *wire.Error, err error) {
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		tr.Fold(m.ID, call.Spans)
	}
	if err != nil {
		if ctx.Err() == nil && !errors.Is(err, wire.ErrFrameTooLarge) {
			rt.rm.wireFallbacks.Inc()
			m.markRequest(false, downAfter)
		}
		return
	}
	answered.Inc()
	rt.rm.observeReplica(m.ID, "wire", time.Since(call.Start))
	m.markRequest(werr == nil || werr.Code < http.StatusInternalServerError, downAfter)
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

// ownersFor returns the replica set of a resolved structure key, healthy
// members first but otherwise in ring order, so the primary is sticky (its
// oracle pool stays hot) while down replicas drop to last-resort attempts.
// A key promoted hot (rebalance.go) widens to R+k: the extra owners were
// pre-loaded by PromoteHot, so routing to them serves from a handed-off
// structure, not a cold build.
func (rt *Router) ownersFor(k store.Key) []*Member {
	n := rt.m.Replicas()
	rt.hotMu.Lock()
	n += rt.promoted[k]
	rt.hotMu.Unlock()
	return healthyFirst(rt.m.OwnersN(KeyHash(k), n))
}

// healthyFirst moves the healthy members to the front in place, keeping
// ring order within the healthy and the unhealthy — a stable partition,
// reading each member's health once.
func healthyFirst(owners []*Member) []*Member {
	k := 0
	for i, m := range owners {
		if m.Healthy() {
			copy(owners[k+1:i+1], owners[k:i])
			owners[k] = m
			k++
		}
	}
	return owners
}

// maxTrackedKeys caps the hot-key hit map; when full it resets rather than
// evicting — hotness re-accumulates in a few seconds of traffic, and a
// reset is cheaper than bookkeeping an LRU on the point path.
const maxTrackedKeys = 8192

// noteKey adds hits routed queries to the key's hit count.
func (rt *Router) noteKey(k store.Key, hits uint64) {
	rt.hotMu.Lock()
	if len(rt.hotHits) >= maxTrackedKeys {
		rt.hotHits = make(map[store.Key]uint64)
	}
	rt.hotHits[k] += hits
	rt.hotMu.Unlock()
}

// pointResult is one point attempt's outcome: a distance, the shard's
// in-protocol refusal, or a transport error.
type pointResult struct {
	dist int32
	werr *wire.Error
	err  error
}

// settlePoint decodes and settles one point attempt on m.
func (rt *Router) settlePoint(ctx context.Context, m *Member, call *wire.Call) pointResult {
	var res pointResult
	res.dist, res.werr, res.err = call.Point()
	rt.settle(ctx, m, call, rt.rm.wirePoints, res.werr, res.err)
	return res
}

// hedgedDo tries the owners in order until one answers: the primary first,
// the next replica when the hedge delay passes before the primary answers,
// and failover on transport faults and retryable statuses (404
// unknown-graph shard state, 5xx) after a jittered exponential backoff
// bounded by the remaining budget. Owners whose circuit breaker is open are
// skipped — unless every owner's is, in which case one attempt is forced
// (an answer beats a guaranteed refusal, and the outcome feeds the
// breaker). A deterministic client error (any other 4xx) is relayed
// immediately — every replica would repeat it; a retryable status is
// remembered and relayed only when every replica says no. Attempts are
// pipelined calls collected on the request goroutine; the ones still in
// flight when an answer wins are abandoned.
func (rt *Router) hedgedDo(ctx context.Context, owners []*Member, typ byte, q *wire.PointQuery) pointResult {
	payload := wire.AppendPoint(make([]byte, 0, 64), q)
	col := wire.NewCollector(ctx, make(chan *wire.Call, len(owners)))
	defer func() {
		col.Abandon()
		// A loser whose answer is already in still counts, as it did when
		// it had finished before the winner was chosen.
		for len(col.C) > 0 {
			call := <-col.C
			rt.settlePoint(ctx, owners[call.Tag], call)
		}
	}()
	next := 0
	launch := func() bool {
		for next < len(owners) {
			m := owners[next]
			next++
			if !m.breakerAllow() {
				rt.rm.breakerSkips.Inc()
				continue
			}
			start(&col, m, typ, payload, next-1)
			return true
		}
		return false
	}
	if !launch() {
		// Every owner's breaker is open: force the primary anyway.
		rt.rm.breakerForced.Inc()
		start(&col, owners[0], typ, payload, 0)
	}
	var hedgeAt time.Time
	if rt.opts.HedgeDelay > 0 && len(owners) > 1 {
		hedgeAt = time.Now().Add(rt.opts.HedgeDelay)
	}
	last := pointResult{err: errNoShard}
	retries := 0
	for col.Pending() > 0 {
		call := col.Next(hedgeAt)
		if call == nil {
			// The hedge delay passed with no answer in.
			hedgeAt = time.Time{}
			if launch() {
				rt.rm.hedges.Inc()
			}
			continue
		}
		res := rt.settlePoint(ctx, owners[call.Tag], call)
		if res.err == nil && (res.werr == nil || !retryableStatus(res.werr.Code)) {
			return res // an answer, or a deterministic client error relayed as-is
		}
		// Prefer a definitive shard reply over a transport error as the
		// answer of last resort.
		if res.err == nil || last.werr == nil {
			last = res
		}
		if next >= len(owners) {
			continue
		}
		retries++
		if !rt.sleepBackoff(ctx, retries) {
			// Budget exhausted mid-backoff: no further attempts; any
			// stragglers still pending fail fast on the dead context.
			continue
		}
		if launch() {
			rt.rm.failovers.Inc()
		}
	}
	return last
}

// Point routes one point query (server.Backend): it hedges across the
// replica set of the query's registry key and relays the winner's answer.
// A vertex-failure query rides the same machinery under its vertex-model
// key.
func (rt *Router) Point(ctx context.Context, k store.Key, typ byte, q wire.PointQuery) (int32, *wire.Error) {
	owners := rt.ownersFor(k)
	if len(owners) == 0 {
		return 0, errNoShardsJoined
	}
	rt.rm.points.Inc()
	rt.noteKey(k, 1)
	res := rt.hedgedDo(ctx, owners, typ, &q)
	if res.err != nil {
		code := http.StatusBadGateway
		if errors.Is(res.err, context.DeadlineExceeded) || ctx.Err() != nil {
			// The budget ran out, not the replicas: answer 504 like a shard
			// would, so callers can tell "too slow" from "all dead".
			code = http.StatusGatewayTimeout
		}
		return 0, &wire.Error{Code: code, Msg: fmt.Sprintf("cluster: all %d replicas failed: %v", len(owners), res.err)}
	}
	return res.dist, res.werr
}

// batchMember is one member a /batch-query vector routes to. Each round
// reads its breaker and health once; load, the slots it was given so far,
// spans rounds.
type batchMember struct {
	m             *Member
	open, healthy bool
	load          int
	off, n        int // this round's slots, laid out at order[off : off+n]
}

// unitKey names a batch unit: the route of its structure's registry key,
// which carries the failure model, and the failure, the failed edge's
// endpoints in ascending order or the failed vertex. Its fields are
// integers, so a vector of distinct failures hashes each slot's key once,
// in the route lookup.
type unitKey struct {
	route, a, b int32
}

// batchRoute is one structure key's replicas, as indexes into a batch's
// members, and how many slots addressed it; id numbers it in the batch.
type batchRoute struct {
	id     int32
	owners []int
	hits   uint64
}

// batchUnit is what a shard repairs once: the slots of one structure that
// fail the same edge or vertex. It is placed, and retried, whole.
type batchUnit struct {
	owners []int // its key's replicas as indexes into members, its own copy: placement reorders it
	tried  int   // owners[:tried] already attempted
	slots  []int // the slots still to answer, in vector order
}

// fail leaves msg in every slot of the unit that holds no error yet.
func (u *batchUnit) fail(msg string, errs []string) {
	for _, i := range u.slots {
		if errs[i] == "" {
			errs[i] = msg
		}
	}
}

// Batch scatter-gathers a multi-structure batch (server.Backend). The unit
// it places is what a shard repairs once: the slots of one structure that
// fail one edge or one vertex. Each round puts every unit whole on its
// least-loaded untried replica, ships one sub-batch per shard laid out unit
// by unit, and merges per-query results; a unit whose attempt failed moves
// whole to its next replica, and only slots whose whole replica set failed
// come back with error slots. Each round's sub-batches are pipelined calls
// collected on the request goroutine.
func (rt *Router) Batch(ctx context.Context, keys []store.Key, slots []wire.BatchSlot, dists []int, errs []string) {
	n := len(slots)
	rt.rm.batches.Inc()
	rt.rm.batchQueries.Add(uint64(n))
	// Units name their owners by index into members.
	var members []batchMember
	memberIndex := func(m *Member) int {
		for j := range members {
			if members[j].m == m {
				return j
			}
		}
		members = append(members, batchMember{m: m})
		return len(members) - 1
	}
	// One ring walk and one hot-key count per distinct key, not per slot — a
	// 256-slot batch over 16 structures resolves 16 owner sets. Until the
	// units are carved, dists holds each placed slot's unit. The unit index
	// is sized for a unit per slot: growing it would cost a vector of
	// distinct failures more than the rest of its placement.
	byKey := make(map[store.Key]*batchRoute)
	byUnit := make(map[unitKey]int, n)
	routes := make([]*batchRoute, 0, n) // each unit's
	for i := 0; i < n; i++ {
		dists[i] = -1
		if errs[i] != "" {
			continue
		}
		r := byKey[keys[i]]
		if r == nil {
			owners := rt.ownersFor(keys[i])
			r = &batchRoute{id: int32(len(byKey)), owners: make([]int, len(owners))}
			for j, m := range owners {
				r.owners[j] = memberIndex(m)
			}
			byKey[keys[i]] = r
		}
		r.hits++
		if len(r.owners) == 0 {
			errs[i] = "cluster: no shards joined"
			continue
		}
		uk := unitKey{route: r.id, a: slots[i].A, b: slots[i].B}
		if uk.a > uk.b {
			uk.a, uk.b = uk.b, uk.a
		}
		u, ok := byUnit[uk]
		if !ok {
			u = len(routes)
			byUnit[uk] = u
			routes = append(routes, r)
		}
		dists[i] = u
	}
	for k, r := range byKey {
		rt.noteKey(k, r.hits)
	}
	// Carve every unit's slots and owner copy from shared slabs.
	units := make([]batchUnit, len(routes))
	placed := 0
	for _, u := range dists {
		if u >= 0 {
			units[u].tried++ // counts the unit's slots until they are carved
			placed++
		}
	}
	slotSlab, ownerSlab := make([]int, placed), make([]int, 0, len(units)*rt.m.Replicas())
	for u := range units {
		un := &units[u]
		un.slots, slotSlab, un.tried = slotSlab[:0:un.tried], slotSlab[un.tried:], 0
		ownerSlab = append(ownerSlab, routes[u].owners...)
		un.owners = ownerSlab[len(ownerSlab)-len(routes[u].owners) : len(ownerSlab) : len(ownerSlab)]
	}
	for i, u := range dists {
		if u >= 0 {
			units[u].slots = append(units[u].slots, i)
			dists[i] = -1
		}
	}
	pending := make([]int, len(units))
	for u := range pending {
		pending[u] = u
	}

	// Each round ships each shard one sub-batch per wire.MaxBatchSlots of
	// its slots; units whose attempt failed (transport, shard error, or
	// per-slot error) advance to their next replica with the slots still
	// unanswered. Rounds are bounded by the replication factor. Unlike point
	// queries (which stick to the primary for oracle-pool locality), a unit
	// picks the least-loaded untried replica of its key, load counted in
	// slots, so a few hot structures cannot pile the whole vector onto one
	// shard — every replica holds the structure, so any of them answers
	// correctly. Placing units, not slots, keeps each failure's subtree
	// repair on one shard: a slot-by-slot choice splits one failure's
	// targets over the replicas, and each repairs it.
	type subBatch struct {
		member int
		slots  []int            // indexes into the vector
		batch  []wire.BatchSlot // the slots' wire form
	}
	var subs []subBatch
	var payload []byte
	var again []bool // slots to retry, made when the first one fails
	retry := func(i int) {
		if again == nil {
			again = make([]bool, n)
		}
		again[i] = true
	}
	order, ordered := make([]int, placed), make([]wire.BatchSlot, placed)
	for round := 0; len(pending) > 0 && round < rt.m.Replicas(); round++ {
		if round > 0 && !rt.sleepBackoff(ctx, round) {
			// Budget exhausted between rounds: pending slots keep the error
			// their last attempt recorded.
			break
		}
		for j := range members {
			bm := &members[j]
			bm.open, bm.healthy, bm.n = bm.m.breakerOpen(), bm.m.Healthy(), 0
		}
		assigned := pending[:0]
		for _, u := range pending {
			un := &units[u]
			if un.tried >= len(un.owners) {
				un.fail("cluster: all replicas failed", errs)
				continue
			}
			// Graceful degradation: when every remaining replica of this
			// unit's key has an open breaker, fail the unit now instead of
			// feeding a sub-batch to shards known to be failing — the rest of
			// the vector still answers. (Batch selection reads breaker state
			// without consuming half-open probe tokens; the point path and
			// readiness probes drive recovery.)
			allOpen := true
			for _, j := range un.owners[un.tried:] {
				if !members[j].open {
					allOpen = false
					break
				}
			}
			if allOpen {
				rt.rm.breakerSkips.Inc()
				un.fail(fmt.Sprintf("cluster: circuit open: all %d replicas unavailable", len(un.owners)), errs)
				continue
			}
			best := un.tried
			for j := un.tried + 1; j < len(un.owners); j++ {
				cand, cur := &members[un.owners[j]], &members[un.owners[best]]
				if cand.open != cur.open {
					if !cand.open {
						best = j
					}
					continue
				}
				if cand.healthy != cur.healthy {
					if cand.healthy {
						best = j
					}
					continue
				}
				if cand.load < cur.load {
					best = j
				}
			}
			un.owners[un.tried], un.owners[best] = un.owners[best], un.owners[un.tried]
			bm := &members[un.owners[un.tried]]
			un.tried++
			bm.load += len(un.slots)
			bm.n += len(un.slots)
			assigned = append(assigned, u)
		}
		// Lay each member's slots out contiguously, unit by unit, and cut
		// them into frames of at most MaxBatchSlots, so neither a request
		// nor its answer outgrows the frame bound.
		off := 0
		for j := range members {
			members[j].off, off, members[j].n = off, off+members[j].n, 0
		}
		for _, u := range assigned {
			un := &units[u]
			bm := &members[un.owners[un.tried-1]]
			for _, i := range un.slots {
				order[bm.off+bm.n], ordered[bm.off+bm.n] = i, slots[i]
				bm.n++
			}
		}
		subs = subs[:0]
		for j, bm := range members {
			for lo, end := bm.off, bm.off+bm.n; lo < end; lo += wire.MaxBatchSlots {
				hi := min(lo+wire.MaxBatchSlots, end)
				subs = append(subs, subBatch{member: j, slots: order[lo:hi], batch: ordered[lo:hi]})
			}
		}
		if round > 0 {
			rt.rm.failovers.Add(uint64(len(subs)))
		}

		col := wire.NewCollector(ctx, make(chan *wire.Call, len(subs)))
		for k, sb := range subs {
			payload = wire.AppendBatch(payload[:0], sb.batch)
			start(&col, members[sb.member].m, wire.TBatch, payload, k)
		}
		for col.Pending() > 0 {
			call := col.Next(time.Time{})
			sb := &subs[call.Tag]
			m := members[sb.member].m
			sdists, serrs, werr, err := call.Batch(len(sb.slots))
			rt.settle(ctx, m, call, rt.rm.wireBatches, werr, err)
			if err != nil || werr != nil {
				// Whole sub-batch failed. Only a deterministic 4xx (a
				// malformed sub-request every replica would repeat) fails
				// its slots in place; transport faults and retryable
				// statuses are shard-specific, so those slots go to the
				// next replica.
				var msg string
				retryable := true
				if err != nil {
					msg = fmt.Sprintf("cluster: shard %s: %v", m.ID, err)
				} else {
					msg = fmt.Sprintf("cluster: shard %s: status %d: %s", m.ID, werr.Code, werr.Msg)
					retryable = retryableStatus(werr.Code)
				}
				for _, i := range sb.slots {
					if errs[i] == "" {
						errs[i] = msg
					}
					if retryable {
						retry(i)
					}
				}
				continue
			}
			for j, i := range sb.slots {
				if e := serrs[j]; e != "" {
					// Per-slot error: cold-replica shard state retries on
					// the next replica (keeping the first message in case
					// every replica is cold); a verdict on the query itself
					// is final and overwrites whatever provisional failover
					// message an earlier dead replica left behind.
					if retryableSlotError(e) {
						if errs[i] == "" {
							errs[i] = e
						}
						retry(i)
					} else {
						errs[i] = e
					}
					continue
				}
				dists[i] = int(sdists[j])
				errs[i] = ""
			}
		}
		col.Abandon()
		// A unit with slots to retry moves on with exactly those.
		pending = assigned[:0]
		if again == nil {
			continue
		}
		for _, u := range assigned {
			un := &units[u]
			left := un.slots[:0]
			for _, i := range un.slots {
				if again[i] {
					again[i] = false
					left = append(left, i)
				}
			}
			if un.slots = left; len(left) > 0 {
				pending = append(pending, u)
			}
		}
	}
}

// Build runs a /build on the cluster (server.Backend), exactly once per
// logical build: concurrent identical requests coalesce on a single-flight
// key of (fingerprint, algorithm, pairs). Each structure is built on one of
// its owners and installed on the others (fanOutBuild).
func (rt *Router) Build(ctx context.Context, g *ftbfs.Graph, req *server.BuildRequest, alg ftbfs.Algorithm, pairs []server.BuildPair) (*server.BuildResponse, *wire.Error) {
	flightKey := fmt.Sprintf("%016x|%d|%v|v%v", g.Fingerprint(), alg, pairs, req.VertexSources)
	resp, werr, shared := rt.buildFlight.Do(flightKey, func() (*server.BuildResponse, *wire.Error) {
		rt.rm.builds.Inc()
		// The fan-out is shared work: coalesced waiters must not lose their
		// build because the first caller hung up, so it is detached from
		// any one request's cancellation and bounded by BuildTimeout alone.
		ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), rt.opts.BuildTimeout)
		defer cancel()
		return rt.fanOutBuild(ctx, g, req, alg, pairs)
	})
	if shared {
		rt.rm.buildsCoalesced.Inc()
	}
	return resp, werr
}

// buildKey is one distinct structure a /build asks for — an edge pair or a
// vertex source — with its owners, healthy first, and what building it gave.
type buildKey struct {
	k       store.Key
	owners  []*Member
	tried   int     // owners[:tried] were asked to build it
	running int     // of those, the ones that have not answered yet
	builder *Member // the first owner that built it; nil until one did
	info    server.StructureInfo
	vinfo   server.VertexStructureInfo
	err     error       // why the last owner that answered did not build it
	refusal *wire.Error // that owner's own refusal behind err, if it refused
}

// decided reports whether bk needs no further answer: an owner built it,
// or refused it as every owner would.
func (bk *buildKey) decided() bool { return bk.builder != nil || finalRefusal(bk.refusal) }

// waiting reports whether bk is undecided with an attempt still running.
func (bk *buildKey) waiting() bool { return !bk.decided() && bk.running > 0 }

// buildReply is a member's answer to one /build of keys (sendBuild).
type buildReply struct {
	m       *Member
	keys    []*buildKey
	resp    *server.BuildResponse
	refusal *wire.Error
	err     error
}

// fanOutBuild builds every requested structure once, on one owner, and then
// installs it on the others (installReplicas). A structure is a
// deterministic function of its key, so running the construction on all R
// owners would only repeat it.
//
// Each key goes to its first owner, healthy first, as one /build per member
// carrying all of that member's keys. A transport fault, a 5xx or a
// malformed reply sends the member's keys on to their next owners at once;
// a deterministic 4xx is final. Keys still unanswered when half of the time
// left has passed are hedged the same way, so a builder that never replies
// cannot spend the whole budget; the first owner to build a key is its
// builder. The reply is merged from each key's builder in request order, so
// it is what a single node answers; a key no owner built fails the build,
// with a final refusal relayed as the shard worded it, else with a gateway
// fault. The keys that were built are installed either way.
func (rt *Router) fanOutBuild(ctx context.Context, g *ftbfs.Graph, req *server.BuildRequest, alg ftbfs.Algorithm, pairs []server.BuildPair) (*server.BuildResponse, *wire.Error) {
	// Re-encode once: the canonical text preserves edge order, so every
	// shard computes the same lineage the router routed on.
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		return nil, &wire.Error{Code: http.StatusInternalServerError, Msg: err.Error()}
	}
	text, fp := buf.String(), g.Lineage()

	// One entry per distinct key, edge pairs first, so every /build lists
	// its pairs before its vertex sources; slots maps every request slot to
	// its entry. Builds route on the same registry key as queries.
	var keys []*buildKey
	index := make(map[store.Key]int)
	slots := make([]int, 0, len(pairs)+len(req.VertexSources))
	add := func(k store.Key) bool {
		i, ok := index[k]
		if !ok {
			owners := healthyFirst(rt.m.Owners(KeyHash(k)))
			if len(owners) == 0 {
				return false
			}
			i = len(keys)
			index[k] = i
			keys = append(keys, &buildKey{k: k, owners: owners})
		}
		slots = append(slots, i)
		return true
	}
	for _, p := range pairs {
		if !add(store.Key{Graph: fp, Source: p.Source, Eps: p.Eps, Alg: alg}) {
			return nil, errNoShardsJoined
		}
	}
	for _, src := range req.VertexSources {
		if !add(store.VertexKey(fp, src)) {
			return nil, errNoShardsJoined
		}
	}

	// send starts an attempt on the next owner of every undecided key that
	// has one left and, unless hedging, no attempt running; it reports
	// whether it started any.
	actx, cancel := context.WithCancel(ctx)
	replies := make(chan buildReply)
	inFlight := 0
	send := func(hedge bool) bool {
		byMember := make(map[*Member][]*buildKey)
		for _, bk := range keys {
			if !bk.decided() && bk.tried < len(bk.owners) && (hedge || bk.running == 0) {
				m := bk.owners[bk.tried]
				bk.tried++
				bk.running++
				byMember[m] = append(byMember[m], bk)
			}
		}
		for m, ks := range byMember {
			inFlight++
			go func() {
				resp, refusal, err := rt.sendBuild(actx, m, text, req.Alg, ks)
				replies <- buildReply{m: m, keys: ks, resp: resp, refusal: refusal, err: err}
			}()
		}
		return len(byMember) > 0
	}
	send(false)
	deadline, _ := ctx.Deadline()
	hedge := time.NewTimer(time.Until(deadline) / 2)
	for slices.ContainsFunc(keys, (*buildKey).waiting) {
		select {
		case r := <-replies:
			inFlight--
			for j, bk := range r.keys {
				bk.running--
				switch {
				case bk.decided(): // another owner answered first
				case r.err != nil:
					bk.err, bk.refusal = fmt.Errorf("shard %s: %w", r.m.ID, r.err), r.refusal
				case bk.k.Model == core.ModelVertex:
					bk.builder, bk.vinfo = r.m, r.resp.VertexStructures[j-len(r.resp.Structures)]
				default:
					bk.builder, bk.info = r.m, r.resp.Structures[j]
				}
			}
			send(false)
		case <-hedge.C:
			if send(true) {
				hedge.Reset(time.Until(deadline) / 2)
			}
		}
	}
	hedge.Stop()
	cancel() // ends the attempts a hedge outran
	for ; inFlight > 0; inFlight-- {
		<-replies
	}
	rt.installReplicas(ctx, keys, text, req.Alg)

	out := &server.BuildResponse{Fingerprint: fmt.Sprintf("%016x", fp), N: g.N(), M: g.M()}
	for _, i := range slots {
		bk := keys[i]
		switch {
		case bk.builder == nil && finalRefusal(bk.refusal):
			return nil, bk.refusal
		case bk.builder == nil:
			what := fmt.Sprintf("build (source=%d, eps=%g)", bk.k.Source, bk.k.Eps)
			if bk.k.Model == core.ModelVertex {
				what = fmt.Sprintf("vertex build (source=%d)", bk.k.Source)
			}
			return nil, &wire.Error{Code: http.StatusBadGateway, Msg: fmt.Sprintf("cluster: %s failed on all %d replicas: %v", what, len(bk.owners), bk.err)}
		case bk.k.Model == core.ModelVertex:
			out.VertexStructures = append(out.VertexStructures, bk.vinfo)
		default:
			out.Structures = append(out.Structures, bk.info)
		}
	}
	return out, nil
}

// installReplicas has every owner of a built key other than its builder
// pull the builder's record over the handoff path rebalance uses
// (/handoff/pull), one pull in flight per owner: each walks its builders in
// turn. Keys a pull did not install are built on that owner instead — an
// owner that built nothing has no graph until a pull succeeds — and a
// failure there is tolerated as a down replica is: the key serves from its
// builder.
func (rt *Router) installReplicas(ctx context.Context, keys []*buildKey, text, alg string) {
	targets := make(map[*Member]map[*Member][]*buildKey) // owner → builder → keys
	for _, bk := range keys {
		for _, m := range bk.owners {
			if bk.builder != nil && m != bk.builder {
				if targets[m] == nil {
					targets[m] = make(map[*Member][]*buildKey)
				}
				targets[m][bk.builder] = append(targets[m][bk.builder], bk)
			}
		}
	}
	var wg sync.WaitGroup
	for target, bySrc := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var missed []*buildKey
			for src, ks := range bySrc {
				infos := make([]server.HandoffKeyInfo, len(ks))
				for j, bk := range ks {
					infos[j] = server.HandoffKeyFor(bk.k)
				}
				res, err := rt.pullTo(ctx, target.Addr(), src, infos)
				if err != nil || res.Transferred+res.Skipped < len(infos) {
					missed = append(missed, ks...)
				}
			}
			if len(missed) > 0 {
				// A failure leaves the keys serving from their builders.
				_, _, _ = rt.sendBuild(ctx, target, text, alg, missed)
			}
		}()
	}
	wg.Wait()
}

// sendBuild posts one /build of the keys' structures to m: the graph text,
// the edge pairs and the vertex sources, in the order of keys. It returns
// m's reply, or why m did not build them all — its refusal, when it refused,
// alongside the error.
func (rt *Router) sendBuild(ctx context.Context, m *Member, text, alg string, keys []*buildKey) (*server.BuildResponse, *wire.Error, error) {
	breq := server.BuildRequest{Graph: text, Alg: alg}
	for _, bk := range keys {
		if bk.k.Model == core.ModelVertex {
			breq.VertexSources = append(breq.VertexSources, bk.k.Source)
		} else {
			breq.Pairs = append(breq.Pairs, server.BuildPair{Source: bk.k.Source, Eps: bk.k.Eps})
		}
	}
	payload, err := json.Marshal(&breq)
	if err != nil {
		return nil, nil, err
	}
	code, body, err := rt.forward(ctx, rt.buildClient, m, http.MethodPost, "/build", payload)
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusOK {
		var reply struct{ Error string }
		if json.Unmarshal(body, &reply) != nil {
			reply.Error = string(bytes.TrimSpace(body))
		}
		return nil, &wire.Error{Code: code, Msg: reply.Error}, fmt.Errorf("status %d: %s", code, reply.Error)
	}
	var resp server.BuildResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, err
	}
	if len(resp.Structures) != len(breq.Pairs) || len(resp.VertexStructures) != len(breq.VertexSources) {
		return nil, nil, fmt.Errorf("shard built %d+%d of %d+%d structures",
			len(resp.Structures), len(resp.VertexStructures), len(breq.Pairs), len(breq.VertexSources))
	}
	return &resp, nil, nil
}

// Mutate fans an edge-mutation batch out to every shard holding the graph's
// lineage (server.Backend). Structures of one lineage hash per-source across
// the whole ring, so the router cannot enumerate which shards hold state for
// it — the batch goes to every member, and shards that never saw the graph
// answer 404, which is tolerated as long as at least one shard applied the
// batch. The fan-out is single-flight per (lineage, batch): concurrent
// identical requests — a client retry racing its own slow original —
// coalesce instead of double-applying, which would fail the retry with "edge
// already absent".
func (rt *Router) Mutate(ctx context.Context, lineage uint64, muts []wire.MutationWire) (wire.MutateResult, *wire.Error) {
	res, werr, shared := rt.mutateFlight.Do(fmt.Sprintf("mut|%016x|%v", lineage, muts), func() (wire.MutateResult, *wire.Error) {
		rt.rm.mutations.Inc()
		// Like /build, the fan-out is shared work detached from any one
		// request's cancellation: a batch applied on some shards but not
		// others leaves the lineage split across generations, so once the
		// fan-out starts it runs to its own BuildTimeout-bounded end.
		ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), rt.opts.BuildTimeout)
		defer cancel()
		return rt.fanOutMutate(ctx, lineage, muts)
	})
	if shared {
		rt.rm.mutationsCoalesced.Inc()
	}
	return res, werr
}

// fanOutMutate ships the batch to every member over the binary protocol and
// merges the replies. Every applying shard derives the same new generation
// from the same batch, so the merged result carries the common identity
// plus fleet-summed rebuild counts; a genuinely diverging shard (different
// gen or fingerprint) fails the fan-out loudly rather than letting replicas
// silently serve different graphs.
func (rt *Router) fanOutMutate(ctx context.Context, lineage uint64, muts []wire.MutationWire) (wire.MutateResult, *wire.Error) {
	members := rt.m.Members()
	if len(members) == 0 {
		return wire.MutateResult{}, errNoShardsJoined
	}

	type shardMutate struct {
		member  *Member
		res     wire.MutateResult
		applied bool
		err     error       // why this shard failed the batch; nil when it applied or holds no such graph
		refusal *wire.Error // the shard's own refusal behind err, if it refused
	}
	shards := make([]shardMutate, len(members))
	payload := wire.AppendMutate(nil, lineage, muts)
	col := wire.NewCollector(ctx, make(chan *wire.Call, len(members)))
	for i, m := range members {
		shards[i].member = m
		start(&col, m, wire.TMutate, payload, i)
	}
	for col.Pending() > 0 {
		call := col.Next(time.Time{})
		sm := &shards[call.Tag]
		res, werr, err := call.Mutate()
		rt.settle(ctx, sm.member, call, rt.rm.wireMutations, werr, err)
		switch {
		case err != nil:
			sm.err = err
		case werr == nil:
			sm.res, sm.applied = res, true
		case werr.Code != http.StatusNotFound:
			sm.refusal, sm.err = werr, fmt.Errorf("status %d: %s", werr.Code, werr.Msg)
		}
	}
	col.Abandon()

	out := wire.MutateResult{Lineage: lineage}
	applied := 0
	var failed *shardMutate
	for i := range shards {
		sm := &shards[i]
		if sm.err != nil && failed == nil {
			failed = sm
		}
		if !sm.applied {
			continue
		}
		if applied == 0 {
			out.Gen, out.FP = sm.res.Gen, sm.res.FP
		} else if out.Gen != sm.res.Gen || out.FP != sm.res.FP {
			return wire.MutateResult{}, &wire.Error{Code: http.StatusBadGateway, Msg: fmt.Sprintf(
				"cluster: mutation diverged: shard %s reached gen %d fp %016x, others gen %d fp %016x",
				sm.member.ID, sm.res.Gen, sm.res.FP, out.Gen, out.FP)}
		}
		applied++
		out.RebuildsDelta += sm.res.RebuildsDelta
		out.RebuildsFull += sm.res.RebuildsFull
	}
	if failed != nil {
		// A batch no shard applied and a shard refused with a deterministic
		// 4xx is refused as a single node refuses it. Otherwise one shard
		// refusing or failing the batch while others applied it splits the
		// lineage across generations; surface it as a gateway fault (or the
		// shards' own deterministic 4xx, or 413 for a batch too large for a
		// frame) so the caller knows convergence is not complete. Queries
		// stay safe either way — every shard serves whichever generation it
		// holds, atomically.
		if applied == 0 && finalRefusal(failed.refusal) {
			return wire.MutateResult{}, failed.refusal
		}
		code := http.StatusBadGateway
		switch {
		case finalRefusal(failed.refusal):
			code = failed.refusal.Code
		case errors.Is(failed.err, wire.ErrFrameTooLarge):
			code = http.StatusRequestEntityTooLarge
		}
		return wire.MutateResult{}, &wire.Error{Code: code, Msg: fmt.Sprintf(
			"cluster: mutate applied on %d of %d shards: shard %s: %v", applied, len(members), failed.member.ID, failed.err)}
	}
	if applied == 0 {
		err := &server.UnknownGraphError{Fingerprint: lineage}
		return wire.MutateResult{}, &wire.Error{Code: http.StatusNotFound, Msg: err.Error()}
	}
	rt.rm.mutationShards.Add(uint64(applied))
	rt.rm.mutationsDelta.Add(uint64(out.RebuildsDelta))
	rt.rm.mutationsFull.Add(uint64(out.RebuildsFull))
	return out, nil
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

	// Rebalance state: a churn soak asserts StructuresTransferred grows (the
	// transfer actually ran — load-through would mask a broken handoff; it
	// counts /build's installs too) and RangesPending == 0 (it finished).
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
		rt.edge.Error(w, http.StatusMethodNotAllowed, "GET required")
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
	server.WriteJSON(w, http.StatusOK, resp)
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
		rt.edge.Error(w, http.StatusMethodNotAllowed, "GET required")
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
	server.WriteJSON(w, http.StatusOK, server.HealthResponse{
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
	server.WriteJSON(w, code, resp)
}
