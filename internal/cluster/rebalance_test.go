package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftbfs"
	"ftbfs/internal/server"
	"ftbfs/internal/store"
)

// vertexFixture is a vertex-failure structure served by the cluster plus its
// single-node ground truth.
type vertexFixture struct {
	fp     string
	fpU    uint64
	source int
	oracle *ftbfs.VertexOracle
	n      int
}

// buildVertexFixtures registers one graph and a vertex structure per source
// through the router's /build.
func buildVertexFixtures(t testing.TB, url string, seed int64, sources []int) []vertexFixture {
	t.Helper()
	g, _ := clusterGraph(40, 60, seed)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	var br server.BuildResponse
	code, body := postJSON(t, url+"/build", server.BuildRequest{
		Graph:         text.String(),
		VertexSources: sources,
	}, &br)
	if code != http.StatusOK {
		t.Fatalf("/build vertex: %d %s", code, body)
	}
	var fpU uint64
	if _, err := fmt.Sscanf(br.Fingerprint, "%016x", &fpU); err != nil {
		t.Fatal(err)
	}
	var out []vertexFixture
	for _, src := range sources {
		ref, err := ftbfs.BuildVertex(g, src)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, vertexFixture{
			fp: br.Fingerprint, fpU: fpU, source: src, oracle: ref.Oracle(), n: g.N(),
		})
	}
	return out
}

// edgeKey converts an edge fixture to its store key.
func edgeKey(t testing.TB, fx fixture) store.Key {
	t.Helper()
	var fpU uint64
	if _, err := fmt.Sscanf(fx.fp, "%016x", &fpU); err != nil {
		t.Fatal(err)
	}
	return store.Key{Graph: fpU, Source: fx.source, Eps: fx.eps}
}

// rebalanceQuery is one precomputed routed query with its ground truth. The
// oracles are not goroutine-safe (query scratch buffers), so churn tests
// precompute every (url, want) pair serially and let workers replay them.
type rebalanceQuery struct {
	url  string
	want int
}

// rebalanceQueries interleaves edge and vertex queries over every fixture.
func rebalanceQueries(t testing.TB, base string, fixtures []fixture, vfixtures []vertexFixture) []rebalanceQuery {
	t.Helper()
	var qs []rebalanceQuery
	for _, fx := range fixtures {
		for i, e := range fx.edges {
			v := (i * 13) % fx.n
			want, err := fx.oracle.DistAvoiding(v, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, rebalanceQuery{
				url: fmt.Sprintf("%s/dist-avoiding?graph=%s&source=%d&eps=%g&v=%d&fu=%d&fv=%d",
					base, fx.fp, fx.source, fx.eps, v, e[0], e[1]),
				want: want,
			})
		}
	}
	for _, vf := range vfixtures {
		for i := 0; i < 24; i++ {
			fw := 1 + (i % (vf.n - 1))
			if fw == vf.source {
				continue
			}
			v := (i * 7) % vf.n
			want, err := vf.oracle.DistAvoidingVertex(v, fw)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, rebalanceQuery{
				url: fmt.Sprintf("%s/dist-avoiding-vertex?graph=%s&source=%d&v=%d&fw=%d",
					base, vf.fp, vf.source, v, fw),
				want: want,
			})
		}
	}
	// Shuffle edge and vertex queries together deterministically so every
	// worker stride mixes both failure models.
	for i := len(qs) - 1; i > 0; i-- {
		j := (i * 7919) % (i + 1)
		qs[i], qs[j] = qs[j], qs[i]
	}
	return qs
}

// TestRouterRebalanceJoinDrainDifferential is the elastic-cluster gate: with
// mixed edge/vertex traffic running, a shard joins (its gained structures
// transfer onto it before routing flips) and another drains out (its
// structures push to successors before it leaves). Every answer along the
// way must match the single-node oracles, and afterwards the router's /stats
// and the new shard's store must prove the structures moved — not load-through.
func TestRouterRebalanceJoinDrainDifferential(t *testing.T) {
	lc, err := StartLocal(3, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	fixtures := buildFixtures(t, lc.URL(), []int64{61, 62, 63}, []int{0, 5}, 0.3)
	vfixtures := buildVertexFixtures(t, lc.URL(), 64, []int{0, 1, 2, 3})
	qs := rebalanceQueries(t, lc.URL(), fixtures, vfixtures)
	// /build's installs count as transfers too; the rebalance is measured
	// from here.
	var rs0 RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs0); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}

	var wrong, errs atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[i%len(qs)]
				resp, err := client.Get(q.url)
				if err != nil {
					errs.Add(1)
					continue
				}
				var dr struct {
					Dist int `json:"dist"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					errs.Add(1)
					continue
				}
				if dr.Dist != q.want {
					wrong.Add(1)
					t.Errorf("routed %s = %d, want %d mid-rebalance", q.url, dr.Dist, q.want)
					return
				}
			}
		}()
	}

	ctx := context.Background()
	time.Sleep(20 * time.Millisecond) // let traffic establish

	// A shard joins mid-traffic: transfer-before-flip.
	sh, joinReport, err := lc.AddShard(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(joinReport.Errors) != 0 {
		t.Fatalf("join rebalance errors: %v", joinReport.Errors)
	}
	if joinReport.Rejoin {
		t.Fatal("fresh shard reported as rejoin")
	}
	if joinReport.Transferred < 1 {
		t.Fatalf("joiner received %d structures (ranges=%d) — transfer never ran", joinReport.Transferred, joinReport.Ranges)
	}
	time.Sleep(20 * time.Millisecond)

	// Another shard leaves mid-traffic: drain pushes to successors first.
	drainReport, err := lc.RemoveShard(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(drainReport.Errors) != 0 {
		t.Fatalf("drain rebalance errors: %v", drainReport.Errors)
	}
	time.Sleep(20 * time.Millisecond)

	close(stop)
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d wrong answers during rebalance", n)
	}
	if n := errs.Load(); n != 0 {
		t.Fatalf("%d request errors during join/drain (no shard was killed — failover should mask the churn)", n)
	}

	// The router's stats must confirm the rebalance actually moved bytes.
	var rs RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	if rs.Rebalances != 2 {
		t.Fatalf("stats report %d rebalances, want 2 (one join, one drain)", rs.Rebalances)
	}
	if rs.StructuresTransferred <= rs0.StructuresTransferred || rs.BytesMoved <= rs0.BytesMoved {
		t.Fatalf("stats report %d structures / %d bytes moved by the rebalance — load-through masked a broken handoff",
			rs.StructuresTransferred-rs0.StructuresTransferred, rs.BytesMoved-rs0.BytesMoved)
	}
	if rs.RangesPending != 0 {
		t.Fatalf("stats report %d ranges still pending after both rebalances", rs.RangesPending)
	}

	// The joined shard serves from handed-off structures, not load-through:
	// it holds structures, performed zero builds, and answers a held key
	// correctly when queried directly.
	st := sh.Store.Stats()
	if st.Builds != 0 {
		t.Fatalf("new shard performed %d builds — structures must arrive by handoff", st.Builds)
	}
	if st.HandoffsIn < 1 {
		t.Fatalf("new shard counted %d handoffs in", st.HandoffsIn)
	}
	served := false
	for _, fx := range fixtures {
		if !sh.Store.Has(edgeKey(t, fx)) {
			continue
		}
		e := fx.edges[0]
		checkPoint(t, sh.Addr(), fx, e[1], e)
		served = true
		break
	}
	if !served {
		// All transferred keys were vertex keys; prove one of those instead.
		for _, vf := range vfixtures {
			if !sh.Store.Has(store.VertexKey(vf.fpU, vf.source)) {
				continue
			}
			w := 1 + vf.source%2
			if w == vf.source {
				w++
			}
			want, err := vf.oracle.DistAvoidingVertex(w, w)
			if err != nil {
				t.Fatal(err)
			}
			var dr struct {
				Dist int `json:"dist"`
			}
			code, body := getJSON(t, fmt.Sprintf("%s/dist-avoiding-vertex?graph=%s&source=%d&v=%d&fw=%d",
				sh.Addr(), vf.fp, vf.source, w, w), &dr)
			if code != http.StatusOK {
				t.Fatalf("direct vertex query on joined shard: %d %s", code, body)
			}
			if dr.Dist != want {
				t.Fatalf("joined shard answers %d, oracle says %d", dr.Dist, want)
			}
			served = true
			break
		}
	}
	if !served {
		t.Fatalf("joined shard holds none of the fixtures (transferred=%d)", joinReport.Transferred)
	}
	if after := sh.Store.Stats(); after.Builds != 0 {
		t.Fatal("direct query on the joined shard triggered a build — it was not serving the handed-off structure")
	}
}

// soakPhase aggregates one phase of the churn soak.
type soakPhase struct {
	Phase   string  `json:"phase"`
	Queries uint64  `json:"queries"`
	Errors  uint64  `json:"errors"`
	Wrong   uint64  `json:"wrong"`
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
}

// soakSampler collects per-phase latency/error samples from many workers.
type soakSampler struct {
	mu        sync.Mutex
	phase     string
	order     []string
	latencies map[string][]time.Duration
	errors    map[string]uint64
	wrong     map[string]uint64
}

func newSoakSampler() *soakSampler {
	return &soakSampler{
		latencies: make(map[string][]time.Duration),
		errors:    make(map[string]uint64),
		wrong:     make(map[string]uint64),
	}
}

func (s *soakSampler) setPhase(p string) {
	s.mu.Lock()
	s.phase = p
	// Phases repeat across soak iterations; aggregate each name once.
	seen := false
	for _, o := range s.order {
		if o == p {
			seen = true
			break
		}
	}
	if !seen {
		s.order = append(s.order, p)
	}
	s.mu.Unlock()
}

func (s *soakSampler) record(d time.Duration, ok, correct bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.phase
	if !ok {
		s.errors[p]++
		return
	}
	if !correct {
		s.wrong[p]++
		return
	}
	s.latencies[p] = append(s.latencies[p], d)
}

func (s *soakSampler) summary() []soakPhase {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []soakPhase
	for _, p := range s.order {
		lat := append([]time.Duration(nil), s.latencies[p]...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		ph := soakPhase{
			Phase:   p,
			Queries: uint64(len(lat)) + s.errors[p] + s.wrong[p],
			Errors:  s.errors[p],
			Wrong:   s.wrong[p],
		}
		if len(lat) > 0 {
			ph.P50us = float64(lat[len(lat)/2].Microseconds())
			ph.P99us = float64(lat[len(lat)*99/100].Microseconds())
		}
		out = append(out, ph)
	}
	return out
}

// TestChurnSoak runs mixed edge/vertex traffic through a cluster that joins
// and drains shards in a loop for a configurable duration, recording
// per-phase latency and error counts. CI runs it short on PRs and extended
// on the nightly schedule via CHURN_SOAK_DURATION; CHURN_SOAK_SUMMARY names
// a JSON file to write the per-phase summary to (uploaded as a CI artifact).
func TestChurnSoak(t *testing.T) {
	duration := 2 * time.Second
	if v := os.Getenv("CHURN_SOAK_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad CHURN_SOAK_DURATION %q: %v", v, err)
		}
		duration = d
	}
	if testing.Short() {
		duration = 500 * time.Millisecond
	}

	lc, err := StartLocal(3, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fixtures := buildFixtures(t, lc.URL(), []int64{71, 72}, []int{0, 5}, 0.3)
	vfixtures := buildVertexFixtures(t, lc.URL(), 73, []int{0, 1})
	qs := rebalanceQueries(t, lc.URL(), fixtures, vfixtures)
	// /build's installs count as transfers too; the churn is measured from
	// here.
	var rs0 RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs0); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}

	sampler := newSoakSampler()
	sampler.setPhase("baseline")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[i%len(qs)]
				start := time.Now()
				resp, err := client.Get(q.url)
				elapsed := time.Since(start)
				if err != nil {
					sampler.record(elapsed, false, false)
					continue
				}
				var dr struct {
					Dist int `json:"dist"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					sampler.record(elapsed, false, false)
					continue
				}
				sampler.record(elapsed, true, dr.Dist == q.want)
			}
		}()
	}

	// Churn loop: join a shard, drain an old one, settle; repeat until the
	// soak budget is spent. Every iteration grows then shrinks the cluster
	// back to 3 shards.
	ctx := context.Background()
	deadline := time.Now().Add(duration)
	slice := duration / 8
	if slice < 50*time.Millisecond {
		slice = 50 * time.Millisecond
	}
	iterations := 0
	for time.Now().Before(deadline) {
		time.Sleep(slice) // baseline / settled traffic

		sampler.setPhase("join")
		if _, report, err := lc.AddShard(ctx); err != nil {
			t.Fatal(err)
		} else if len(report.Errors) != 0 {
			t.Fatalf("join errors: %v", report.Errors)
		}
		time.Sleep(slice)

		sampler.setPhase("drain")
		if report, err := lc.RemoveShard(ctx, 0); err != nil {
			t.Fatal(err)
		} else if len(report.Errors) != 0 {
			t.Fatalf("drain errors: %v", report.Errors)
		}
		time.Sleep(slice)

		sampler.setPhase("settled")
		iterations++
	}
	close(stop)
	wg.Wait()

	summary := sampler.summary()
	var totalWrong, totalErrs, totalQ uint64
	for _, ph := range summary {
		totalWrong += ph.Wrong
		totalErrs += ph.Errors
		totalQ += ph.Queries
		t.Logf("phase %-8s queries=%d errors=%d wrong=%d p50=%.0fµs p99=%.0fµs",
			ph.Phase, ph.Queries, ph.Errors, ph.Wrong, ph.P50us, ph.P99us)
	}
	if path := os.Getenv("CHURN_SOAK_SUMMARY"); path != "" {
		raw, err := json.MarshalIndent(map[string]any{
			"duration":   duration.String(),
			"iterations": iterations,
			"queries":    totalQ,
			"phases":     summary,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if totalWrong != 0 {
		t.Fatalf("%d wrong answers across %d soak iterations", totalWrong, iterations)
	}
	if totalErrs != 0 {
		t.Fatalf("%d request errors across %d soak iterations (join/drain churn must be invisible)", totalErrs, iterations)
	}
	if totalQ == 0 || iterations == 0 {
		t.Fatalf("vacuous soak: %d queries, %d iterations", totalQ, iterations)
	}

	// After the soak the cluster must be quiescent and the handoff machinery
	// demonstrably used.
	var rs RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	if rs.RangesPending != 0 {
		t.Fatalf("%d ranges pending after soak", rs.RangesPending)
	}
	if rs.StructuresTransferred == rs0.StructuresTransferred || rs.BytesMoved == rs0.BytesMoved {
		t.Fatalf("soak moved %d structures / %d bytes — not a single transfer", rs.StructuresTransferred-rs0.StructuresTransferred, rs.BytesMoved-rs0.BytesMoved)
	}
}

// TestPromoteHotWidensReplicaSet drives the R+k promotion path: after enough
// recorded hits a key's replica set widens by one, the extra owner receives
// the structure by handoff (never building), and routed reads keep answering
// correctly from the widened set.
func TestPromoteHotWidensReplicaSet(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fixtures := buildFixtures(t, lc.URL(), []int64{81}, []int{0}, 0.3)
	fx := fixtures[0]

	// Heat the key up past the threshold.
	for i := 0; i < 12; i++ {
		e := fx.edges[i%len(fx.edges)]
		checkPoint(t, lc.URL(), fx, (i*5)%fx.n, e)
	}
	// /build already installed the key on its second owner; the promotion
	// is measured from here.
	var builds0, installs0 uint64
	for _, sh := range lc.Shards {
		st := sh.Store.Stats()
		builds0 += st.Builds
		installs0 += st.HandoffsIn
	}
	ctx := context.Background()
	n, err := lc.Router.PromoteHot(ctx, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("promoted %d keys, want exactly 1 (only one key is hot)", n)
	}
	// Idempotent: a second sweep promotes nothing new.
	if n, err := lc.Router.PromoteHot(ctx, 1, 10); err != nil || n != 0 {
		t.Fatalf("second sweep promoted %d (err=%v)", n, err)
	}

	// The structure now resides on R+1 = 3 shards, the extra copy by handoff.
	k := edgeKey(t, fx)
	holders := 0
	var builds, installs uint64
	for _, sh := range lc.Shards {
		if sh.Store.Has(k) {
			holders++
		}
		st := sh.Store.Stats()
		builds += st.Builds
		installs += st.HandoffsIn
	}
	if holders != 3 {
		t.Fatalf("%d shards hold the hot key, want 3 (R=2 + 1)", holders)
	}
	if installs-installs0 != 1 || builds != builds0 {
		t.Fatalf("the promotion made %d handoff installs and %d builds, want 1 install (the promoted copy) and no build",
			installs-installs0, builds-builds0)
	}

	// Routing sees the widened set and answers stay correct.
	var rs RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	if rs.HotPromotions != 1 || rs.PromotedKeys != 1 {
		t.Fatalf("stats: hot_promotions=%d promoted_keys=%d, want 1/1", rs.HotPromotions, rs.PromotedKeys)
	}
	for i := 0; i < len(fx.edges); i += 2 {
		e := fx.edges[i]
		checkPoint(t, lc.URL(), fx, (i*11)%fx.n, e)
	}
}

// TestPromoteHotNeedsTheRecord heats a key whose promotion sources — every
// owner of its base replica set — can no longer export it: their
// memory-only stores evicted it, so each of the extra owner's pulls installs
// nothing and answers 200 with the key in its errors. PromoteHot must
// promote nothing: hot_promotions and the key's owner set stay as they
// were, the extra owner holds nothing, and routed answers stay correct.
func TestPromoteHotNeedsTheRecord(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2, StoreCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fx := buildFixtures(t, lc.URL(), []int64{81}, []int{0}, 0.3)[0]
	for i := 0; i < 12; i++ {
		checkPoint(t, lc.URL(), fx, (i*5)%fx.n, fx.edges[i%len(fx.edges)])
	}
	k := edgeKey(t, fx)
	ownerIDs := func() []string {
		var ids []string
		for _, m := range lc.Router.ownersFor(k) {
			ids = append(ids, m.ID)
		}
		sort.Strings(ids)
		return ids
	}
	before := ownerIDs()
	ms := lc.Router.Membership()
	base := ms.OwnersN(KeyHash(k), ms.Replicas())
	wide := ms.OwnersN(KeyHash(k), ms.Replicas()+1)
	if len(wide) != len(base)+1 {
		t.Fatalf("the key widens from %d to %d owners, want one more", len(base), len(wide))
	}
	// A capacity-1 store keeps only the structure it resolved last.
	for _, m := range base {
		evictKey(t, shardByID(t, lc, m.ID), k)
	}

	n, err := lc.Router.PromoteHot(context.Background(), 1, 10)
	if n != 0 {
		t.Fatalf("promoted %d keys from a source that cannot export them", n)
	}
	if err == nil {
		t.Fatal("PromoteHot reported no error for a pull that installed nothing")
	}
	var rs RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	if rs.HotPromotions != 0 || rs.PromotedKeys != 0 {
		t.Fatalf("stats: hot_promotions=%d promoted_keys=%d, want 0/0", rs.HotPromotions, rs.PromotedKeys)
	}
	if after := ownerIDs(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("the key's owners went from %v to %v", before, after)
	}
	if shardByID(t, lc, wide[len(base)].ID).Store.Has(k) {
		t.Fatal("the extra owner holds the key although the source could not export it")
	}
	for i := 0; i < len(fx.edges); i += 2 {
		checkPoint(t, lc.URL(), fx, (i*11)%fx.n, fx.edges[i])
	}
}

// evictKey makes the capacity-1 store of sh resolve another key of k's
// graph, so it no longer holds k.
func evictKey(t *testing.T, sh *LocalShard, k store.Key) {
	t.Helper()
	other := store.Key{Graph: k.Graph, Source: k.Source + 1, Eps: k.Eps}
	if _, err := sh.Store.GetOrBuild(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	if sh.Store.Has(k) {
		t.Fatalf("shard %s still holds %v after resolving another key", sh.ID, k)
	}
}

// TestPromoteHotTriesEveryBaseOwner heats a key whose first base owner
// evicted it while the second still holds it. PromoteHot must fall back to
// the second owner as the pull source: it promotes the key, the extra owner
// holds it, and routed answers stay correct.
func TestPromoteHotTriesEveryBaseOwner(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2, StoreCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fx := buildFixtures(t, lc.URL(), []int64{81}, []int{0}, 0.3)[0]
	for i := 0; i < 12; i++ {
		checkPoint(t, lc.URL(), fx, (i*5)%fx.n, fx.edges[i%len(fx.edges)])
	}
	k := edgeKey(t, fx)
	ms := lc.Router.Membership()
	base := healthyFirst(ms.OwnersN(KeyHash(k), ms.Replicas()))
	wide := ms.OwnersN(KeyHash(k), ms.Replicas()+1)
	if len(base) != 2 || len(wide) != 3 {
		t.Fatalf("the key has %d base and %d widened owners, want 2 and 3", len(base), len(wide))
	}
	evictKey(t, shardByID(t, lc, base[0].ID), k)
	if !shardByID(t, lc, base[1].ID).Store.Has(k) {
		t.Fatal("the second base owner does not hold the hot key; the test tests nothing")
	}

	n, err := lc.Router.PromoteHot(context.Background(), 1, 10)
	if err != nil || n != 1 {
		t.Fatalf("PromoteHot = %d, %v; want the key promoted from the second base owner", n, err)
	}
	if !shardByID(t, lc, wide[2].ID).Store.Has(k) {
		t.Fatal("the extra owner does not hold the promoted key")
	}
	var rs RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	if rs.HotPromotions != 1 || rs.PromotedKeys != 1 {
		t.Fatalf("stats: hot_promotions=%d promoted_keys=%d, want 1/1", rs.HotPromotions, rs.PromotedKeys)
	}
	if got := len(lc.Router.ownersFor(k)); got != 3 {
		t.Fatalf("the promoted key routes to %d owners, want 3", got)
	}
	for i := 0; i < len(fx.edges); i += 2 {
		checkPoint(t, lc.URL(), fx, (i*11)%fx.n, fx.edges[i])
	}
}

// TestJoinTransfersMutatedLineage joins a shard after a lineage has moved
// to generation 1. A handoff key names the graph by lineage while the graph
// it fetches is the source's serving generation, so the pull must check the
// lineage, not the generation's fingerprint: the joiner installs every key
// it gains, builds none, and every routed answer stays what it was.
func TestJoinTransfersMutatedLineage(t *testing.T) {
	lc, err := StartLocal(2, LocalOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	g, edges := clusterGraph(60, 90, 5)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	sources := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var br server.BuildResponse
	if code, body := postJSON(t, lc.URL()+"/build", server.BuildRequest{Graph: text.String(), Sources: sources, Eps: []float64{0.3}}, &br); code != http.StatusOK {
		t.Fatalf("/build: %d %s", code, body)
	}
	// Delete a non-tree edge: the graph stays connected.
	e := edges[len(edges)-1]
	code, mr, body, err := mutateVia(http.DefaultClient, lc.URL(), br.Fingerprint, []server.MutationJSON{{Op: "delete", U: e[0], V: e[1]}})
	if err != nil || code != http.StatusOK || mr.Gen != 1 {
		t.Fatalf("/mutate: %d %s (%v), want 200 at gen 1", code, body, err)
	}
	answers := func() map[string]string {
		out := make(map[string]string)
		for _, src := range sources {
			for v := 0; v < g.N(); v += 7 {
				q := fmt.Sprintf("%s/dist?graph=%s&source=%d&eps=0.3&v=%d", lc.URL(), br.Fingerprint, src, v)
				code, body := getJSON(t, q, nil)
				if code != http.StatusOK {
					t.Fatalf("routed %s: %d %s", q, code, body)
				}
				out[q] = body
			}
		}
		return out
	}
	before := answers()

	sh, report, err := lc.AddShard(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Ranges == 0 {
		t.Fatal("the joiner gained no key; the test tested nothing")
	}
	if report.Transferred != report.Ranges || len(report.Errors) != 0 {
		t.Fatalf("join moved %d of %d ranges, errors %v", report.Transferred, report.Ranges, report.Errors)
	}
	if b := sh.Store.Stats().Builds; b != 0 {
		t.Fatalf("the joiner built %d structures, want 0 (all handed off)", b)
	}
	after := answers()
	for q, want := range before {
		if after[q] != want {
			t.Fatalf("routed %s after the join: %s, before it: %s", q, after[q], want)
		}
	}
}
