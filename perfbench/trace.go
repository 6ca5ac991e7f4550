package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"ftbfs"
	"ftbfs/internal/cluster"
	"ftbfs/internal/server"
	"ftbfs/internal/store"
	"ftbfs/internal/wire"
)

const (
	pointCutRequests = 2048 // point stream prefix each point cut replays
	batchCutPasses   = 2    // passes over the batch stream per batch cut
	writeCutCycles   = 4    // churn writer cycles replayed on a private store
)

// tracer runs the per-layer replay. Every timed call lands as a span in the
// tracer's log; the metrics are derived from those spans afterwards.
type tracer struct {
	d   *deployment
	fx  *fixture
	s   *streams
	cfg config
	log *spanLog
	m   map[string]metricValue
	n   map[string]int // samples or base count behind each metric, for the report
}

func (t *tracer) set(name string, v float64, n int) {
	t.m[name] = metricValue{v, unitOf(name)}
	t.n[name] = n
}

// runTraced is the per-layer run: set up once, verify, warm up, run the
// workload's closed loop (an untraced half, then a traced half), replay the
// point and batch streams at every layer boundary and the churn writer on a
// private store, then check that the point cuts nest.
func runTraced(cfg config, out io.Writer) (*result, error) {
	fx, s, err := fixtureFor(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	d, _, _, err := deploy(fx, runtime.NumGoroutine())
	if err != nil {
		return nil, err
	}
	defer d.close()
	if err := verifyResident(d, fx); err != nil {
		return nil, err
	}
	warm, err := runLoop(cfg.workload, d.base, "", s, warmup, time.Time{}, 0)
	if err != nil {
		return nil, err
	}
	t := &tracer{d: d, fx: fx, s: s, cfg: cfg, log: &spanLog{origin: time.Now()},
		m: make(map[string]metricValue), n: make(map[string]int)}
	rep := newReport(out, cfg)
	res, err := t.loop(rep)
	if err != nil {
		return nil, err
	}
	rep.warmUp(res, warm)
	for _, cut := range []func() error{t.pointCuts, t.batchCuts, t.writeCuts} {
		if err := cut(); err != nil {
			return nil, err
		}
	}
	t.derive()
	reinforced := 0
	for _, st := range d.build.Structures {
		reinforced += st.Reinforced
	}
	t.set("core.reinforced_edges", float64(reinforced), len(d.build.Structures))

	for _, m := range perLayer {
		rep.metric(m.name, t.m[m.name].Value, m.unit, t.n[m.name])
	}
	if err := t.writeSpans(); err != nil {
		return nil, err
	}
	res.Metrics = t.m
	if err := checkMetrics(res.Metrics, perLayer); err != nil {
		return nil, err
	}
	return res, t.checkNesting()
}

// loop runs the workload's own closed loop, half untraced and half traced,
// and reads the router's and shards' counters around the traced half.
func (t *tracer) loop(rep *report) (*result, error) {
	half := time.Duration(t.cfg.seconds * float64(time.Second) / 2)
	untraced, err := runLoop(t.cfg.workload, t.d.base, "", t.s, half, time.Time{}, 0)
	if err != nil {
		return nil, err
	}
	before, err := t.d.stats()
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPU(), cpuTime()
	traced, err := runLoop(t.cfg.workload, t.d.base, "", t.s, half, t.log.origin, len(t.s.points)/2)
	if err != nil {
		return nil, err
	}
	gc, cpu := gcCPU()-gc0, cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	after, err := t.d.stats()
	if err != nil {
		return nil, err
	}
	t.log.spans = append(t.log.spans, traced.spans...)

	all := &phase{ops: make(map[string]*opStats)}
	ops := 0
	for _, ph := range []*phase{untraced, traced} {
		for n, st := range ph.ops {
			if all.ops[n] == nil {
				all.ops[n] = &opStats{}
			}
			all.ops[n].merge(st)
		}
	}
	for _, st := range traced.ops {
		ops += st.sent
	}
	res := rep.outcome(all)
	read := readOp(t.cfg.workload)
	if len(untraced.ops[read].lat) == 0 || len(traced.ops[read].lat) == 0 {
		return nil, fmt.Errorf("no successful %s in the traced loop", read)
	}
	t.set("trace_overhead_share", quantile(traced.ops[read].lat, 0.5)/quantile(untraced.ops[read].lat, 0.5)-1, len(traced.ops[read].lat))

	routed := int(after.PointQueries + after.Batches + after.Mutations + after.Builds -
		before.PointQueries - before.Batches - before.Mutations - before.Builds)
	per1k := func(a, b uint64) float64 { return 1000 * ratio(int(a-b), routed) }
	t.set("cluster.hedges_per_1k", per1k(after.Hedges, before.Hedges), routed)
	t.set("cluster.wire_fallbacks_per_1k", per1k(after.WireFallbacks, before.WireFallbacks), routed)
	t.set("cluster.failovers_per_1k", per1k(after.Failovers, before.Failovers), routed)
	mutations := int(after.Mutations - before.Mutations)
	t.set("cluster.mutate_shards", ratio(int(after.MutationShards-before.MutationShards), mutations), mutations)
	var shed, hits, lookups uint64
	for i := range after.Shards {
		a, b := after.Shards[i].Stats, before.Shards[i].Stats
		shed += a.Shed - b.Shed
		hits += a.Store.Hits - b.Store.Hits
		lookups += a.Store.Hits + a.Store.Misses - b.Store.Hits - b.Store.Misses
	}
	t.set("server.shed_per_1k", 1000*ratio(int(shed), routed), routed)
	t.set("store.hit_share", ratio(int(hits), int(lookups)), int(lookups))
	t.set("runtime.gc_cpu_share", gc.Seconds()/cpu.Seconds(), ops)
	t.set("runtime.allocs_per_op", ratio(int(ms1.Mallocs-ms0.Mallocs), ops), ops)
	return res, nil
}

// stats reads the router's /stats, which carries every shard's /stats.
func (d *deployment) stats() (*cluster.RouterStatsResponse, error) {
	rec := httptest.NewRecorder()
	d.lc.Router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var rs cluster.RouterStatsResponse
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("router /stats: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rs); err != nil {
		return nil, fmt.Errorf("router /stats: %w", err)
	}
	for _, sh := range rs.Shards {
		if sh.Stats == nil {
			return nil, fmt.Errorf("router /stats: shard %s: %s", sh.ID, sh.Error)
		}
	}
	return &rs, nil
}

// gcCPU reads the runtime's cumulative GC CPU estimate.
func gcCPU() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// primary returns the shard that owns the key first on the ring — where
// point and sub-batch cuts send their calls.
func (t *tracer) primary(k store.Key) *cluster.LocalShard {
	return t.d.shard(t.d.lc.Router.Membership().Owners(cluster.KeyHash(k))[0].ID)
}

// timed runs call as one span of the named cut for request i.
func (t *tracer) timed(name string, i int, call func()) {
	t0 := time.Now()
	call()
	t.log.add(name, i, t0, time.Now())
}

// cut is one layer boundary. run makes request i's call (or one call per
// part of it) through t.timed and keeps the answers; check compares the
// kept answers of request i with the expected ones. prep, when set, makes
// the per-call inputs of one pass over the requests before that pass starts.
type cut struct {
	name  string
	prep  func()
	run   func(i int) error
	check func(i int) error
}

// runCuts measures the cuts over n requests in two passes. A sequential
// pass per cut, which also warms every lazy path, counts heap allocations
// per request with no spans recorded; its answers are checked once the
// count is read. The timed pass then interleaves the cuts request by
// request, so every layer's median samples the same moments and drift in
// the host's speed cannot reorder the layers; it checks every answer as it
// comes. It returns the allocations per request by cut name.
func (t *tracer) runCuts(n int, cuts []cut) (map[string]float64, error) {
	allocs := make(map[string]float64)
	log := t.log
	t.log = nil
	defer func() { t.log = log }()
	for _, c := range cuts {
		if c.prep != nil {
			c.prep()
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < n; i++ {
			if err := c.run(i); err != nil {
				return nil, fmt.Errorf("%s request %d: %w", c.name, i, err)
			}
		}
		runtime.ReadMemStats(&ms1)
		allocs[c.name] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
		for i := 0; i < n; i++ {
			if err := c.check(i); err != nil {
				return nil, fmt.Errorf("%s request %d: %w", c.name, i, err)
			}
		}
	}
	t.log = log
	for _, c := range cuts {
		if c.prep != nil {
			c.prep()
		}
	}
	for i := 0; i < n; i++ {
		for _, c := range cuts {
			if err := c.run(i); err != nil {
				return nil, fmt.Errorf("%s request %d: %w", c.name, i, err)
			}
			if err := c.check(i); err != nil {
				return nil, fmt.Errorf("%s request %d: %w", c.name, i, err)
			}
		}
	}
	return allocs, nil
}

// handlerCut times one in-process http.Handler call per request. Requests
// and recorders are made by prep, outside the timed calls; each recorder
// keeps its answer for check.
func (t *tracer) handlerCut(name string, n int, h func(i int) http.Handler, req func(i int) *http.Request, check func(i, code int, body []byte) error) cut {
	rr := make([]*http.Request, n)
	rec := make([]*httptest.ResponseRecorder, n)
	return cut{name: name,
		prep: func() {
			for i := range rr {
				rr[i], rec[i] = req(i), httptest.NewRecorder()
			}
		},
		run: func(i int) error {
			t.timed(name, i, func() { h(i).ServeHTTP(rec[i], rr[i]) })
			return nil
		},
		check: func(i int) error { return check(i, rec[i].Code, rec[i].Body.Bytes()) }}
}

// clientCut times one request per request index over the benchmark's own
// HTTP client and keeps the status and a copy of the body for check.
func (t *tracer) clientCut(name string, n int, send func(i int) (int, []byte, error), check func(i, code int, body []byte) error) cut {
	codes := make([]int, n)
	bodies := make([][]byte, n)
	return cut{name: name,
		run: func(i int) error {
			var body []byte
			var err error
			t.timed(name, i, func() { codes[i], body, err = send(i) })
			bodies[i] = append(bodies[i][:0], body...)
			return err
		},
		check: func(i int) error { return check(i, codes[i], bodies[i]) }}
}

// httpDist parses a point query's JSON answer.
func httpDist(code int, body []byte) (int, error) {
	var r struct {
		Dist *int `json:"dist"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &r) != nil || r.Dist == nil {
		return 0, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	}
	return *r.Dist, nil
}

// wireClients dials one single-connection wire client per shard.
func (t *tracer) wireClients() map[string]*wire.Client {
	wcs := make(map[string]*wire.Client)
	for _, sh := range t.d.lc.Shards {
		wcs[sh.ID] = wire.NewClient(sh.Server.WireAddr(), 1)
	}
	return wcs
}

// pointCuts replays the point stream's prefix through the HTTP edge, the
// router in-process, the primary shard's wire listener, its HTTP handler and
// wire backend in-process, its store, and the pooled plan.
func (t *tracer) pointCuts() error {
	ctx := context.Background()
	reqs := t.s.points[:pointCutRequests]
	n := len(reqs)
	check := func(i, got int) error {
		if got != reqs[i].want {
			return fmt.Errorf("%s: got %d, want %d", reqs[i].url, got, reqs[i].want)
		}
		return nil
	}
	checkHTTP := func(i, code int, body []byte) error {
		d, err := httpDist(code, body)
		if err != nil {
			return err
		}
		return check(i, d)
	}
	queries := make([]wire.PointQuery, n)
	owners := make([]*cluster.LocalShard, n)
	edgeSt := make([]*ftbfs.Structure, n)
	vertSt := make([]*ftbfs.VertexStructure, n)
	for i := range reqs {
		queries[i] = reqs[i].wireQuery()
		owners[i] = t.primary(reqs[i].ref.key)
		var ok bool
		if reqs[i].ref.vertex {
			vertSt[i], ok = owners[i].Store.GetVertex(reqs[i].ref.key.Graph, reqs[i].ref.source)
		} else {
			edgeSt[i], ok = owners[i].Store.Get(reqs[i].ref.key)
		}
		if !ok {
			return fmt.Errorf("%v is not resident on its primary %s", reqs[i].ref.key, owners[i].ID)
		}
	}
	hc := newHTTPClient()
	defer hc.close()
	wcs := t.wireClients()
	for _, wc := range wcs {
		defer wc.Close()
	}
	get := func(i int) *http.Request { return httptest.NewRequest(http.MethodGet, reqs[i].url, nil) }
	// valueCut times call for request i and keeps the distance it returns.
	valueCut := func(name string, call func(i int) (int, error)) cut {
		got := make([]int, n)
		return cut{name: name,
			run: func(i int) error {
				var err error
				t.timed(name, i, func() { got[i], err = call(i) })
				return err
			},
			check: func(i int) error { return check(i, got[i]) }}
	}

	cuts := []cut{
		t.clientCut("http.point", n, func(i int) (int, []byte, error) {
			return hc.do(http.MethodGet, t.d.base+reqs[i].url, nil)
		}, checkHTTP),
		t.handlerCut("cluster.point", n, func(int) http.Handler { return t.d.lc.Router }, get, checkHTTP),
		valueCut("wire.point", func(i int) (int, error) {
			d, werr, err := wcs[owners[i].ID].Point(ctx, reqs[i].typ, &queries[i])
			if err == nil && werr != nil {
				err = fmt.Errorf("wire error %d: %s", werr.Code, werr.Msg)
			}
			return int(d), err
		}),
		t.handlerCut("server.http_point", n, func(i int) http.Handler { return owners[i].Server }, get, checkHTTP),
		valueCut("server.point", func(i int) (int, error) {
			d, werr := owners[i].Server.WirePoint(ctx, reqs[i].typ, &queries[i])
			if werr != nil {
				return 0, fmt.Errorf("wire error %d: %s", werr.Code, werr.Msg)
			}
			return int(d), nil
		}),
		valueCut("store.point", func(i int) (int, error) {
			p, st := &reqs[i], owners[i].Store
			if p.ref.vertex {
				vst, err := st.GetOrBuildVertex(ctx, p.ref.key.Graph, p.ref.source)
				if err != nil {
					return 0, err
				}
				return answerVertex(vst, p)
			}
			es, err := st.GetOrBuild(ctx, p.ref.key)
			if err != nil {
				return 0, err
			}
			return answerEdge(es, p)
		}),
		valueCut("ftbfs.point", func(i int) (int, error) {
			if reqs[i].ref.vertex {
				return answerVertex(vertSt[i], &reqs[i])
			}
			return answerEdge(edgeSt[i], &reqs[i])
		}),
	}
	allocs, err := t.runCuts(n, cuts)
	if err != nil {
		return err
	}
	t.set("cluster.point_allocs", allocs["cluster.point"], n)
	t.set("server.point_allocs", allocs["server.point"], n)
	t.set("ftbfs.point_allocs", allocs["ftbfs.point"], n)
	return nil
}

// answerEdge answers an edge-structure point query the way the shard does:
// Structure.Dist for /dist, the pooled oracle otherwise.
func answerEdge(st *ftbfs.Structure, p *pointReq) (int, error) {
	if p.typ == wire.TDist {
		return st.Dist(p.v), nil
	}
	var d int
	err := st.OraclePool().Do(func(o *ftbfs.Oracle) error {
		var err error
		d, err = o.DistAvoiding(p.v, p.a, p.b)
		return err
	})
	return d, err
}

// answerVertex answers a vertex-failure point query with the pooled oracle.
func answerVertex(st *ftbfs.VertexStructure, p *pointReq) (int, error) {
	var d int
	err := st.OraclePool().Do(func(o *ftbfs.VertexOracle) error {
		var err error
		d, err = o.DistAvoidingVertex(p.v, p.a)
		return err
	})
	return d, err
}

// subBatch is the part of one vector a primary owner answers.
type subBatch struct {
	shard *cluster.LocalShard
	idx   []int // slot positions in the vector
	slots []wire.BatchSlot
}

// group is the part of one vector one structure answers.
type group struct {
	st     *ftbfs.Structure
	vst    *ftbfs.VertexStructure
	idx    []int // slot positions in the vector
	edge   []ftbfs.FailureQuery
	vertex []ftbfs.VertexFailureQuery
}

// batchCuts replays the batch stream through the HTTP edge, the router
// in-process, per-primary wire sub-batches, the shards' wire backend
// in-process, and the pooled Each calls per structure group. Batch, wire,
// server and ftbfs spans of one vector share its request index; derive sums
// the parts per vector.
func (t *tracer) batchCuts() error {
	ctx := context.Background()
	n := batchCutPasses * len(t.s.batches)
	batch := func(i int) *batchReq { return &t.s.batches[i%len(t.s.batches)] }
	check := func(b *batchReq, idx []int, dists []int, errs []string) error {
		for j, i := range idx {
			if errs != nil && errs[j] != "" {
				return fmt.Errorf("slot %d: %s", i, errs[j])
			}
			if dists[j] != b.slots[i].want {
				return fmt.Errorf("slot %d: got %d, want %d", i, dists[j], b.slots[i].want)
			}
		}
		return nil
	}
	checkHTTP := func(i, code int, body []byte) error {
		b := batch(i)
		var r server.BatchQueryResponse
		if code != http.StatusOK || json.Unmarshal(body, &r) != nil || len(r.Dists) != len(b.slots) {
			return fmt.Errorf("status %d: %.200s", code, bytes.TrimSpace(body))
		}
		idx := make([]int, len(b.slots))
		for k := range idx {
			idx[k] = k
		}
		return check(b, idx, r.Dists, r.Errors)
	}
	post := func(i int) *http.Request {
		return httptest.NewRequest(http.MethodPost, "/batch-query", bytes.NewReader(batch(i).body))
	}

	// Per-primary sub-batches, as the router ships them when every replica
	// is healthy and idle, and the structure groups within each vector.
	subs := make([][]*subBatch, len(t.s.batches))
	groups := make([][]*group, len(t.s.batches))
	for j := range t.s.batches {
		b := &t.s.batches[j]
		bySub := make(map[string]*subBatch)
		byGroup := make(map[store.Key]*group)
		for i := range b.slots {
			s := &b.slots[i]
			sh := t.primary(s.ref.key)
			sb := bySub[sh.ID]
			if sb == nil {
				sb = &subBatch{shard: sh}
				bySub[sh.ID] = sb
				subs[j] = append(subs[j], sb)
			}
			sb.idx = append(sb.idx, i)
			sb.slots = append(sb.slots, s.wireSlot())
			g := byGroup[s.ref.key]
			if g == nil {
				g = &group{}
				var ok bool
				if s.ref.vertex {
					g.vst, ok = sh.Store.GetVertex(s.ref.key.Graph, s.ref.source)
				} else {
					g.st, ok = sh.Store.Get(s.ref.key)
				}
				if !ok {
					return fmt.Errorf("%v is not resident on its primary %s", s.ref.key, sh.ID)
				}
				byGroup[s.ref.key] = g
				groups[j] = append(groups[j], g)
			}
			g.idx = append(g.idx, i)
			if s.ref.vertex {
				g.vertex = append(g.vertex, ftbfs.VertexFailureQuery{V: s.v, Failed: s.a})
			} else {
				g.edge = append(g.edge, ftbfs.FailureQuery{V: s.v, FailedU: s.a, FailedV: s.b})
			}
		}
	}

	// Router counters over one sequential pass of routed vectors: how many
	// wire sub-batches each became and how many slots the busiest shard
	// answered.
	before, err := t.d.stats()
	if err != nil {
		return err
	}
	for i := 0; i < len(t.s.batches); i++ {
		rec := httptest.NewRecorder()
		t.d.lc.Router.ServeHTTP(rec, post(i))
		if err := checkHTTP(i, rec.Code, rec.Body.Bytes()); err != nil {
			return fmt.Errorf("cluster.batch vector %d: %w", i, err)
		}
	}
	after, err := t.d.stats()
	if err != nil {
		return err
	}
	routed := int(after.Batches - before.Batches)
	t.set("cluster.subbatches_per_batch", ratio(int(after.WireBatches-before.WireBatches), routed), routed)
	var maxSlots uint64
	for i := range after.Shards {
		if q := after.Shards[i].Stats.Queries - before.Shards[i].Stats.Queries; q > maxSlots {
			maxSlots = q
		}
	}
	t.set("cluster.max_shard_slots", ratio(int(maxSlots), routed), routed)

	hc := newHTTPClient()
	defer hc.close()
	wcs := t.wireClients()
	for _, wc := range wcs {
		defer wc.Close()
	}
	ints := func(d []int32) []int {
		out := make([]int, len(d))
		for k, x := range d {
			out[k] = int(x)
		}
		return out
	}
	// subCut times one call per primary sub-batch of vector i and keeps the
	// answers.
	subCut := func(name string, call func(sb *subBatch) ([]int32, []string, error)) cut {
		type answer struct {
			dists []int32
			errs  []string
		}
		got := make([][]answer, n)
		for i := range got {
			got[i] = make([]answer, len(subs[i%len(subs)]))
		}
		return cut{name: name,
			run: func(i int) error {
				for k, sb := range subs[i%len(subs)] {
					a := &got[i][k]
					var err error
					t.timed(name, i, func() { a.dists, a.errs, err = call(sb) })
					if err != nil {
						return err
					}
				}
				return nil
			},
			check: func(i int) error {
				for k, sb := range subs[i%len(subs)] {
					if err := check(batch(i), sb.idx, ints(got[i][k].dists), got[i][k].errs); err != nil {
						return err
					}
				}
				return nil
			}}
	}
	// Each structure group of vector i answers into its own slices, made
	// here, outside the passes; the Each calls overwrite every entry.
	type groupAnswer struct {
		dists []int
		errs  []error
	}
	groupGot := make([][]groupAnswer, n)
	for i := range groupGot {
		for _, g := range groups[i%len(groups)] {
			groupGot[i] = append(groupGot[i], groupAnswer{make([]int, len(g.idx)), make([]error, len(g.idx))})
		}
	}
	cuts := []cut{
		t.clientCut("http.batch", n, func(i int) (int, []byte, error) {
			return hc.do(http.MethodPost, t.d.base+"/batch-query", batch(i).body)
		}, checkHTTP),
		t.handlerCut("cluster.batch", n, func(int) http.Handler { return t.d.lc.Router }, post, checkHTTP),
		subCut("wire.batch", func(sb *subBatch) ([]int32, []string, error) {
			d, errs, werr, err := wcs[sb.shard.ID].Batch(ctx, sb.slots)
			if err == nil && werr != nil {
				err = fmt.Errorf("wire error %d: %s", werr.Code, werr.Msg)
			}
			return d, errs, err
		}),
		subCut("server.batch", func(sb *subBatch) ([]int32, []string, error) {
			d, errs := sb.shard.Server.WireBatch(ctx, sb.slots)
			return d, errs, nil
		}),
		{name: "ftbfs.batch",
			run: func(i int) error {
				for k, g := range groups[i%len(groups)] {
					a := groupGot[i][k]
					t.timed("ftbfs.batch", i, func() {
						if g.vst != nil {
							_ = g.vst.OraclePool().Do(func(o *ftbfs.VertexOracle) error {
								o.DistAvoidingVertexEach(g.vertex, a.dists, a.errs)
								return nil
							})
							return
						}
						_ = g.st.OraclePool().Do(func(o *ftbfs.Oracle) error {
							o.DistAvoidingEach(g.edge, a.dists, a.errs)
							return nil
						})
					})
				}
				return nil
			},
			check: func(i int) error {
				for k, g := range groups[i%len(groups)] {
					a := groupGot[i][k]
					msgs := make([]string, len(a.errs))
					for j, e := range a.errs {
						if e != nil {
							msgs[j] = e.Error()
						}
					}
					if err := check(batch(i), g.idx, a.dists, msgs); err != nil {
						return err
					}
				}
				return nil
			}},
	}
	eh0, er0, vh0, vr0 := ftbfs.PlanQueryCounts()
	allocs, err := t.runCuts(n, cuts)
	if err != nil {
		return err
	}
	// Every routed or direct call above ends in the same pooled plan
	// answers, so the process-wide plan counters give the repair share of
	// the stream.
	eh1, er1, vh1, vr1 := ftbfs.PlanQueryCounts()
	repairs := int((er1 - er0) + (vr1 - vr0))
	answers := repairs + int((eh1-eh0)+(vh1-vh0))
	t.set("ftbfs.repair_share", ratio(repairs, answers), answers)
	t.set("cluster.batch_allocs", allocs["cluster.batch"], n)
	return nil
}

// writeCuts replays the churn writer on a private memory-only store and
// times the library calls under it on the same graphs.
func (t *tracer) writeCuts() error {
	ctx := context.Background()
	fx := t.fx
	var del, ins []ftbfs.Mutation
	for _, e := range fx.churn {
		del = append(del, ftbfs.Mutation{Op: ftbfs.MutDelete, U: e[0], V: e[1]})
		ins = append(ins, ftbfs.Mutation{Op: ftbfs.MutInsert, U: e[0], V: e[1]})
	}
	var lineage []*structRef
	for _, r := range fx.lineage() {
		if !r.vertex {
			lineage = append(lineage, r)
		}
	}
	st, err := store.New(0, "")
	if err != nil {
		return err
	}
	g0, err := ftbfs.ReadGraph(strings.NewReader(fx.text))
	if err != nil {
		return err
	}
	fp, err := st.AddGraph(g0)
	if err != nil {
		return err
	}
	storeReqs := func(sources []int, eps []float64) []store.Req {
		var reqs []store.Req
		for _, s := range sources {
			for _, e := range eps {
				reqs = append(reqs, store.Req{Source: s, Eps: e, Alg: lineage[0].key.Alg})
			}
		}
		return reqs
	}
	if _, err := st.GetOrBuildMany(ctx, fp, storeReqs(churnEdgeSources, []float64{fixtureEps})); err != nil {
		return err
	}
	for _, s := range churnVertexSources {
		if _, err := st.GetOrBuildVertex(ctx, fp, s); err != nil {
			return err
		}
	}
	timed := func(name string, i int, call func() error) error {
		var err error
		t.timed(name, i, func() { err = call() })
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	for k := 0; k < writeCutCycles; k++ {
		if err := timed("store.mutate_delta", k, func() error { _, err := st.Mutate(ctx, fp, del); return err }); err != nil {
			return err
		}
		if err := timed("store.mutate_full", k, func() error { _, err := st.Mutate(ctx, fp, ins); return err }); err != nil {
			return err
		}
		tg, req, err := freshBuild(t.cfg.seed, k)
		if err != nil {
			return err
		}
		// Each cut gets its own copy of the graph, so none inherits lazily
		// built graph state from another.
		gs := make([]*ftbfs.Graph, 4)
		for c := range gs {
			if gs[c], err = ftbfs.ReadGraph(strings.NewReader(tg.text)); err != nil {
				return err
			}
		}
		if err := timed("store.build_many", k, func() error {
			fpk, err := st.AddGraph(gs[0])
			if err != nil {
				return err
			}
			if _, err := st.GetOrBuildMany(ctx, fpk, storeReqs(req.Sources, req.Eps)); err != nil {
				return err
			}
			for _, s := range req.VertexSources {
				if _, err := st.GetOrBuildVertex(ctx, fpk, s); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		var pairs []ftbfs.BatchRequest
		for _, s := range req.Sources {
			for _, e := range req.Eps {
				pairs = append(pairs, ftbfs.BatchRequest{Source: s, Eps: e})
			}
		}
		if err := timed("batch.build", k, func() error { _, err := ftbfs.BuildBatch(gs[1], pairs); return err }); err != nil {
			return err
		}
		if err := timed("core.build", k, func() error { _, err := ftbfs.Build(gs[2], req.Sources[0], fixtureEps); return err }); err != nil {
			return err
		}
		if err := timed("vertexft.build", k, func() error { _, err := ftbfs.BuildVertex(gs[3], req.VertexSources[0]); return err }); err != nil {
			return err
		}

		var g1 *ftbfs.Graph
		var delta *ftbfs.GraphDelta
		if err := timed("ftbfs.graph_mutate", k, func() error {
			var err error
			g1, delta, err = fx.g.Mutate(del)
			return err
		}); err != nil {
			return err
		}
		for _, r := range lineage {
			if err := timed("ftbfs.delta_rebuild", k, func() error {
				if _, ok := ftbfs.DeltaRebuild(r.st, g1, delta); !ok {
					return fmt.Errorf("%v refused the delta path for edges outside H", r.key)
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	swaps := st.Telemetry().Snapshot().Hists["ftbfs_store_swap_seconds"]
	t.set("store.swap_us", swaps.Mean()/1e3, int(swaps.Count()))
	ss := st.Stats()
	rebuilds := int(ss.RebuildsDelta + ss.RebuildsFull)
	t.set("store.delta_share", ratio(int(ss.RebuildsDelta), rebuilds), rebuilds)
	return nil
}

// derive turns the span log into medians and self times. Batch cuts sum
// their parts (sub-batches or structure groups) per vector first. A self
// time carries the sample count of its own cut.
func (t *tracer) derive() {
	single := make(map[string][]float64)
	perReq := make(map[string]map[int]float64)
	for _, sp := range t.log.spans {
		d := float64(sp.end - sp.start)
		single[sp.name] = append(single[sp.name], d)
		if perReq[sp.name] == nil {
			perReq[sp.name] = make(map[int]float64)
		}
		perReq[sp.name][sp.req] += d
	}
	med := func(name string) float64 { return median(single[name]) }
	medSum := func(name string) float64 {
		var xs []float64
		for _, v := range perReq[name] {
			xs = append(xs, v)
		}
		return median(xs)
	}
	const us, ms = 1e3, 1e6
	set := func(metric, cut string, v float64) { t.set(metric, v, len(single[cut])) }
	setSum := func(metric, cut string, v float64) { t.set(metric, v, len(perReq[cut])) }
	httpPoint, clusterPoint, wirePoint := med("http.point"), med("cluster.point"), med("wire.point")
	serverPoint, storePoint, ftbfsPoint := med("server.point"), med("store.point"), med("ftbfs.point")
	set("http.point_us", "http.point", httpPoint/us)
	set("http.point_self_us", "http.point", (httpPoint-clusterPoint)/us)
	set("cluster.point_us", "cluster.point", clusterPoint/us)
	set("cluster.point_self_us", "cluster.point", (clusterPoint-wirePoint)/us)
	set("wire.point_us", "wire.point", wirePoint/us)
	set("wire.point_self_us", "wire.point", (wirePoint-serverPoint)/us)
	set("server.point_ns", "server.point", serverPoint)
	set("server.point_self_ns", "server.point", serverPoint-storePoint)
	set("server.http_point_us", "server.http_point", med("server.http_point")/us)
	set("store.point_ns", "store.point", storePoint)
	set("store.point_self_ns", "store.point", storePoint-ftbfsPoint)
	set("ftbfs.point_ns", "ftbfs.point", ftbfsPoint)

	httpBatch, clusterBatch := med("http.batch"), med("cluster.batch")
	wireBatch, serverBatch, ftbfsBatch := medSum("wire.batch"), medSum("server.batch"), medSum("ftbfs.batch")
	set("http.batch_ms", "http.batch", httpBatch/ms)
	set("http.batch_self_ms", "http.batch", (httpBatch-clusterBatch)/ms)
	set("cluster.batch_ms", "cluster.batch", clusterBatch/ms)
	set("cluster.batch_self_ms", "cluster.batch", (clusterBatch-wireBatch)/ms)
	setSum("wire.batch_us", "wire.batch", wireBatch/us)
	setSum("wire.batch_self_us", "wire.batch", (wireBatch-serverBatch)/us)
	setSum("server.batch_us", "server.batch", serverBatch/us)
	setSum("server.batch_self_us", "server.batch", (serverBatch-ftbfsBatch)/us)
	setSum("ftbfs.batch_us", "ftbfs.batch", ftbfsBatch/us)

	set("store.mutate_delta_ms", "store.mutate_delta", med("store.mutate_delta")/ms)
	set("store.mutate_full_ms", "store.mutate_full", med("store.mutate_full")/ms)
	set("store.build_many_ms", "store.build_many", med("store.build_many")/ms)
	set("ftbfs.graph_mutate_us", "ftbfs.graph_mutate", med("ftbfs.graph_mutate")/us)
	set("ftbfs.delta_rebuild_us", "ftbfs.delta_rebuild", med("ftbfs.delta_rebuild")/us)
	set("batch.build_ms", "batch.build", med("batch.build")/ms)
	set("core.build_ms", "core.build", med("core.build")/ms)
	set("vertexft.build_ms", "vertexft.build", med("vertexft.build")/ms)
}

// checkNesting fails the run unless every point cut's median is at most
// that of the cut enclosing it.
func (t *tracer) checkNesting() error {
	chain := []string{"ftbfs.point_ns", "store.point_ns", "server.point_ns", "wire.point_us", "cluster.point_us", "http.point_us"}
	scale := map[string]float64{"ns": 1, "us": 1e3}
	prev, prevName := 0.0, ""
	for _, name := range chain {
		v := t.m[name].Value * scale[t.m[name].Unit]
		if v < prev {
			return fmt.Errorf("point cuts do not nest: %s = %.0f ns is below %s = %.0f ns", name, v, prevName, prev)
		}
		prev, prevName = v, name
	}
	return nil
}

// writeSpans writes the span log as tab-separated lines: name, request
// index, start and end in nanoseconds from the run's trace origin.
func (t *tracer) writeSpans() error {
	if t.cfg.spanDir == "" {
		return nil
	}
	if err := os.MkdirAll(t.cfg.spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(t.cfg.spanDir, fmt.Sprintf("%s-seed%d.tsv", t.cfg.workload, t.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\treq\tstart_ns\tend_ns")
	for _, sp := range t.log.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", sp.name, sp.req, sp.start.Nanoseconds(), sp.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
