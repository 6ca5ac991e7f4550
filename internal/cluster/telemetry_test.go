package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ftbfs/internal/chaos"
	"ftbfs/internal/server"
	"ftbfs/internal/telemetry"
	"ftbfs/internal/wire"
)

// Observability e2e: /metrics on shard and router, /metrics/fleet
// aggregation, and trace propagation across the router -> shard boundary,
// which routed queries cross over the binary protocol.

// getBody fetches a URL and returns its body, failing the test on transport
// errors or a non-200.
func getBody(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}

var promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?Inf|[-+]?[0-9][0-9eE.+-]*)$`)

// validateProm asserts the body parses as Prometheus text exposition
// format: every line is a comment or a well-formed sample, and every sample
// belongs to a family announced by a preceding TYPE line.
func validateProm(t testing.TB, body string) {
	t.Helper()
	typed := map[string]string{}
	samples := 0
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Fatalf("line %d: not a valid prom sample: %q", ln+1, line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && typed[base] == "histogram" {
				fam = base
			}
		}
		if _, ok := typed[fam]; !ok {
			t.Fatalf("line %d: sample %q has no preceding TYPE", ln+1, line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("exposition body carried no samples")
	}
}

// promValue extracts one sample value from an exposition body.
func promValue(t testing.TB, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition body", series)
	return 0
}

// TestErrorsCountedOnce refuses requests at both tiers and checks that each
// one moves ftbfs_router_errors_total (router) and ftbfs_request_errors_total
// (shard) by exactly one on the tier that refused it: a request the router
// relays counts once on each tier, one the router refuses itself never
// reaches the shard, and a draining /readyz 503 is no error at all.
func TestErrorsCountedOnce(t *testing.T) {
	lc, err := StartLocal(1, LocalOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fx := buildFixtures(t, lc.URL(), []int64{13}, []int{0}, 0.3)[0]
	g, _ := clusterGraph(60, 90, 13)
	var text strings.Builder
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	router, shard := lc.URL(), lc.Shards[0].Addr()
	counts := func() (float64, float64) {
		return promValue(t, getBody(t, router+"/metrics"), "ftbfs_router_errors_total"),
			promValue(t, getBody(t, shard+"/metrics"), "ftbfs_request_errors_total")
	}
	badSource, err := json.Marshal(server.BuildRequest{Graph: text.String(), Sources: []int{999}})
	if err != nil {
		t.Fatal(err)
	}
	selfLoop, err := json.Marshal(server.MutateRequest{Graph: fx.fp, Mutations: []server.MutationJSON{{Op: "insert", U: 3, V: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	outOfRange := fmt.Sprintf("/dist?graph=%s&eps=0.3&v=99999", fx.fp)
	for _, c := range []struct {
		name, base, path, body string
		code                   int
		router, shard          float64 // counter moves
	}{
		{"parse 400 at the router", router, "/dist?graph=zz&v=1", "", http.StatusBadRequest, 1, 0},
		{"parse 400 at the shard", shard, "/dist?graph=zz&v=1", "", http.StatusBadRequest, 0, 1},
		{"relayed shard 400", router, outOfRange, "", http.StatusBadRequest, 1, 1},
		{"shard 400", shard, outOfRange, "", http.StatusBadRequest, 0, 1},
		{"build 400 at the router", router, "/build", "{}", http.StatusBadRequest, 1, 0},
		{"build 400 at the shard", shard, "/build", "{}", http.StatusBadRequest, 0, 1},
		{"relayed build 400", router, "/build", string(badSource), http.StatusBadRequest, 1, 1},
		{"relayed mutate 400", router, "/mutate", string(selfLoop), http.StatusBadRequest, 1, 1},
	} {
		r0, s0 := counts()
		var code int
		if c.body == "" {
			code, _ = getJSON(t, c.base+c.path, nil)
		} else {
			code, _ = postRaw(t, c.base+c.path, c.body)
		}
		r1, s1 := counts()
		if code != c.code || r1-r0 != c.router || s1-s0 != c.shard {
			t.Errorf("%s: %d, errors moved router %+g shard %+g; want %d, %+g and %+g",
				c.name, code, r1-r0, s1-s0, c.code, c.router, c.shard)
		}
	}

	// The router's own 503 with no shards joined.
	empty := NewRouter(NewMembership(1, 0), RouterOptions{})
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodGet, fmt.Sprintf("/dist?graph=%s&v=1", fx.fp), nil),
		httptest.NewRequest(http.MethodPost, "/mutate", strings.NewReader(string(selfLoop))),
	} {
		before := empty.rm.errs.Value()
		rec := httptest.NewRecorder()
		empty.ServeHTTP(rec, req)
		if moved := empty.rm.errs.Value() - before; rec.Code != http.StatusServiceUnavailable || moved != 1 {
			t.Errorf("%s with no shards joined: %d, errors moved %d; want 503 counted once", req.URL.Path, rec.Code, moved)
		}
	}

	// A draining /readyz answers 503 but refuses nothing.
	lc.Router.SetDraining(true)
	lc.Shards[0].Server.SetDraining(true)
	r0, s0 := counts()
	for _, base := range []string{router, shard} {
		if code, _ := getJSON(t, base+"/readyz", nil); code != http.StatusServiceUnavailable {
			t.Errorf("draining %s/readyz: %d, want 503", base, code)
		}
	}
	if r1, s1 := counts(); r1 != r0 || s1 != s0 {
		t.Errorf("draining /readyz moved errors: router %+g shard %+g", r1-r0, s1-s0)
	}
	lc.Router.SetDraining(false)
	lc.Shards[0].Server.SetDraining(false)
}

// TestShardAndRouterMetricsProm proves both tiers serve valid exposition
// text with the request histograms the issue promises.
func TestShardAndRouterMetricsProm(t *testing.T) {
	lc, err := StartLocal(2, LocalOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fixtures := buildFixtures(t, lc.URL(), []int64{421}, []int{0}, 0.3)
	fx := fixtures[0]
	for i := 0; i < 8 && i < len(fx.edges); i++ {
		checkPoint(t, lc.URL(), fx, (i*3)%fx.n, fx.edges[i])
	}

	routerBody := getBody(t, lc.URL()+"/metrics")
	validateProm(t, routerBody)
	for _, want := range []string{
		"ftbfs_router_requests_total ",
		`ftbfs_router_http_request_seconds_count{route="/dist-avoiding",outcome="ok"}`,
		"ftbfs_router_wire_requests_total",
		"ftbfs_router_replica_seconds_count",
	} {
		if !strings.Contains(routerBody, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
	if n := promValue(t, routerBody, "ftbfs_router_point_queries_total"); n < 8 {
		t.Errorf("router point_queries_total = %v, want >= 8", n)
	}

	sawWire := false
	for _, sh := range lc.Shards {
		body := getBody(t, sh.ts.URL+"/metrics")
		validateProm(t, body)
		for _, want := range []string{
			`ftbfs_requests_total{transport="http"}`,
			`ftbfs_requests_total{transport="wire"}`,
			"ftbfs_store_ops_total",
			"ftbfs_plan_queries_total",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("shard %s /metrics missing %q", sh.ID, want)
			}
		}
		if strings.Contains(body, `ftbfs_wire_request_seconds_count{type="dist_avoiding",outcome="ok"}`) &&
			promValue(t, body, `ftbfs_wire_request_seconds_count{type="dist_avoiding",outcome="ok"}`) > 0 {
			sawWire = true
		}
	}
	if !sawWire {
		t.Error("no shard recorded a wire dist_avoiding request — the fast path should have carried the point queries")
	}
}

// TestFleetMetricsMerge drives traffic onto both shards, scrapes their
// /metrics.json snapshots directly, and proves the router's /metrics/fleet
// serves the exact sums — and that the merged histogram's p99 equals the
// rank-based p99 of the concatenated samples, computed the pedestrian way
// (expand every bucket, sort, index).
func TestFleetMetricsMerge(t *testing.T) {
	lc, err := StartLocal(2, LocalOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	// Both shards must observe requests; /healthz hits each directly so the
	// assertion cannot depend on how the ring splits fixture keys.
	for i := 0; i < 40; i++ {
		for _, sh := range lc.Shards {
			getBody(t, sh.ts.URL+"/healthz")
		}
	}

	const series = `ftbfs_http_request_seconds{route="/healthz",outcome="ok"}`
	var snaps []*telemetry.Snapshot
	var wantCount uint64
	var concatenated []int64
	for _, sh := range lc.Shards {
		var s telemetry.Snapshot
		if err := json.Unmarshal([]byte(getBody(t, sh.ts.URL+"/metrics.json")), &s); err != nil {
			t.Fatalf("shard %s /metrics.json: %v", sh.ID, err)
		}
		hs, ok := s.Hists[series]
		if !ok || hs.Count() == 0 {
			t.Fatalf("shard %s snapshot has no %s observations", sh.ID, series)
		}
		wantCount += hs.Count()
		for i, c := range hs.Buckets {
			for j := uint64(0); j < c; j++ {
				concatenated = append(concatenated, telemetry.BucketUpper(i))
			}
		}
		snaps = append(snaps, &s)
	}

	fleet := getBody(t, lc.URL()+"/metrics/fleet")
	validateProm(t, fleet)
	if n := promValue(t, fleet, "ftbfs_fleet_scraped_shards"); n != 2 {
		t.Fatalf("fleet scraped %v shards, want 2", n)
	}
	if n := promValue(t, fleet, `ftbfs_http_request_seconds_count{route="/healthz",outcome="ok"}`); uint64(n) != wantCount {
		t.Errorf("fleet healthz count = %v, want %d (sum of both shards)", n, wantCount)
	}

	// Differential: merged-bucket quantile vs sorted concatenated samples.
	merged := telemetry.Merge(snaps...)
	sort.Slice(concatenated, func(i, j int) bool { return concatenated[i] < concatenated[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := concatenated[ceilRank(q, len(concatenated))-1]
		got := merged.Hists[series].Quantile(q)
		if got != want {
			t.Errorf("merged p%v = %dns, concatenated-samples p%v = %dns", q, got, q, want)
		}
	}
}

// ceilRank returns ceil(q*n) clamped to [1, n] — the registry's quantile
// rank convention, reimplemented independently for the differential.
func ceilRank(q float64, n int) int {
	r := int(q * float64(n))
	if float64(r) < q*float64(n) {
		r++
	}
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// traceRecords decodes a /debug/traces body.
func traceRecords(t testing.TB, url string) []telemetry.TraceRecord {
	t.Helper()
	var recs []telemetry.TraceRecord
	if err := json.Unmarshal([]byte(getBody(t, url)), &recs); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return recs
}

func spanNames(rec telemetry.TraceRecord) []string {
	names := make([]string, len(rec.Spans))
	for i, sp := range rec.Spans {
		names[i] = sp.Name
	}
	return names
}

// TestTraceHeaderPropagation sends one explicitly traced point query and
// follows the ID through every hop: the response span header, the router's
// trace ring, and the serving shard's trace ring all see the same trace. The
// shard's span reaches the router in the wire response frame.
func TestTraceHeaderPropagation(t *testing.T) {
	lc, err := StartLocal(2, LocalOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fx := buildFixtures(t, lc.URL(), []int64{431}, []int{0}, 0.3)[0]

	const traceID = "00000000deadbeef"
	url := fmt.Sprintf("%s/dist-avoiding?graph=%s&source=%d&eps=%g&v=%d&fu=%d&fv=%d",
		lc.URL(), fx.fp, fx.source, fx.eps, 1%fx.n, fx.edges[0][0], fx.edges[0][1])
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(telemetry.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced query: status %d", resp.StatusCode)
	}
	spans := resp.Header.Get(telemetry.SpanHeader)
	if !strings.Contains(spans, "router.handle") {
		t.Errorf("response spans %q missing the router's own span", spans)
	}
	if !strings.Contains(spans, ":shard.wire") {
		t.Errorf("response spans %q missing a folded shard span", spans)
	}

	var routerRec *telemetry.TraceRecord
	for _, rec := range traceRecords(t, lc.URL()+"/debug/traces") {
		if rec.ID == traceID {
			rec := rec
			routerRec = &rec
		}
	}
	if routerRec == nil {
		t.Fatalf("router /debug/traces has no record for %s", traceID)
	}
	names := strings.Join(spanNames(*routerRec), ",")
	if !strings.Contains(names, "router.handle") || !strings.Contains(names, ":shard.wire") {
		t.Errorf("router trace %s spans = %s, want router.handle and a <shard>:shard.wire", traceID, names)
	}

	// The shard that served it recorded the same ID in its own ring, and
	// its span there is the one the router folded under its member ID.
	found := false
	for _, sh := range lc.Shards {
		for _, rec := range traceRecords(t, sh.ts.URL+"/debug/traces") {
			if rec.ID == traceID && rec.Route == "wire" {
				found = true
				if !strings.Contains(names, sh.ID+":shard.wire") {
					t.Errorf("shard %s served trace %s but the router folded %s", sh.ID, traceID, names)
				}
			}
		}
	}
	if !found {
		t.Errorf("no shard /debug/traces recorded trace %s over the wire", traceID)
	}
}

// TestWireTraceFramePropagation proves the binary protocol's per-frame
// trace field carries the ID both ways: a traced context on the wire client
// surfaces in the shard's trace ring with the same ID, and the shard's span
// comes back in the response into the caller's trace, no HTTP involved.
func TestWireTraceFramePropagation(t *testing.T) {
	lc, err := StartLocal(1, LocalOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fx := buildFixtures(t, lc.URL(), []int64{441}, []int{0}, 0.3)[0]
	fp, err := strconv.ParseUint(fx.fp, 16, 64)
	if err != nil {
		t.Fatal(err)
	}

	sh := lc.Shards[0]
	wc := wire.NewClient(sh.Server.WireAddr(), 1)
	defer wc.Close()
	tr := telemetry.NewTrace(0xabc123)
	ctx := telemetry.WithTrace(context.Background(), tr)
	d, werr, err := wc.Point(ctx, wire.TDist, &wire.PointQuery{
		FP: fp, EpsBits: math.Float64bits(fx.eps), Source: int32(fx.source), V: 1, A: -1, B: -1,
	})
	if err != nil || werr != nil {
		t.Fatalf("wire point: %v / %v", err, werr)
	}
	if want := fx.oracle.Dist(1); int(d) != want {
		t.Fatalf("wire dist = %d, oracle says %d", d, want)
	}
	if got := spanNames(telemetry.TraceRecord{Spans: tr.Spans()}); len(got) != 1 || got[0] != "shard.wire" {
		t.Fatalf("caller's trace holds %v, want the shard.wire span from the response frame", got)
	}

	want := telemetry.FormatTraceID(0xabc123)
	found := false
	for _, rec := range traceRecords(t, sh.ts.URL+"/debug/traces") {
		if rec.ID == want && rec.Route == "wire" {
			found = true
			if !strings.Contains(strings.Join(spanNames(rec), ","), "shard.wire") {
				t.Errorf("wire trace %s spans = %v, want shard.wire", want, spanNames(rec))
			}
		}
	}
	if !found {
		t.Errorf("shard /debug/traces has no wire-route record for %s", want)
	}
}

// TestTraceSampledUnderLatencyChaos is the acceptance gate: with every
// point query sampled and the latency fault plan armed, a slow request must
// leave a retrievable trace at the router's /debug/traces whose record
// holds both router and shard spans under one ID.
func TestTraceSampledUnderLatencyChaos(t *testing.T) {
	plan, ok := chaos.Named("latency")
	if !ok {
		t.Fatal("latency plan missing from the chaos catalog")
	}
	inj := chaos.New(plan, 7)
	inj.SetEnabled(false)
	lc, err := StartLocal(2, LocalOptions{
		Replicas: 1,
		Chaos:    inj,
		Router: RouterOptions{
			DefaultBudget: 2 * time.Second,
			TraceSample:   1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fx := buildFixtures(t, lc.URL(), []int64{451}, []int{0}, 0.3)[0]
	defer inj.SetEnabled(false)
	inj.SetEnabled(true)

	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 20 && i < len(fx.edges); i++ {
		e := fx.edges[i%len(fx.edges)]
		url := fmt.Sprintf("%s/dist-avoiding?graph=%s&source=%d&eps=%g&v=%d&fu=%d&fv=%d",
			lc.URL(), fx.fp, fx.source, fx.eps, (i*3)%fx.n, e[0], e[1])
		resp, err := client.Get(url)
		if err != nil {
			continue // a fault ate the request; the trace gate only needs one survivor
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	inj.SetEnabled(false)

	recs := traceRecords(t, lc.URL()+"/debug/traces")
	if len(recs) == 0 {
		t.Fatal("router /debug/traces is empty after 20 sampled queries under the latency plan")
	}
	for _, rec := range recs {
		names := strings.Join(spanNames(rec), ",")
		if strings.Contains(names, "router.handle") && strings.Contains(names, ":shard.wire") {
			if _, ok := telemetry.ParseTraceID(rec.ID); !ok {
				t.Fatalf("trace record carries malformed ID %q", rec.ID)
			}
			return // one full router+shard trace under fire is the acceptance bar
		}
	}
	t.Errorf("no retained trace holds both router and shard spans; records: %+v", recs)
}
