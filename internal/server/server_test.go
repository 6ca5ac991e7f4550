package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ftbfs"
	"ftbfs/internal/store"
)

func testGraph(t testing.TB, n, extra int, seed int64) *ftbfs.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := ftbfs.NewGraph(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(i, rng.Intn(i))
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

func newTestServer(t testing.TB) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(st))
	t.Cleanup(ts.Close)
	return ts, st
}

func postJSON(t testing.TB, url string, body, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("bad response %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

// distResponse is a point endpoint's JSON answer.
type distResponse struct {
	Dist int `json:"dist"` // -1 means unreachable
}

func getJSON(t testing.TB, url string, out any) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("bad response %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

// buildVia registers g with the service and returns its fingerprint.
func buildVia(t testing.TB, ts *httptest.Server, g *ftbfs.Graph, sources []int, eps float64) BuildResponse {
	t.Helper()
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	var out BuildResponse
	code, body := postJSON(t, ts.URL+"/build", BuildRequest{
		Graph:   text.String(),
		Sources: sources,
		Eps:     []float64{eps},
	}, &out)
	if code != http.StatusOK {
		t.Fatalf("/build: %d %s", code, body)
	}
	return out
}

func TestBuildEndpoint(t *testing.T) {
	ts, st := newTestServer(t)
	g := testGraph(t, 40, 60, 1)
	out := buildVia(t, ts, g, []int{0, 7}, 0.3)
	if out.N != 40 || len(out.Structures) != 2 {
		t.Fatalf("unexpected build response %+v", out)
	}
	for _, si := range out.Structures {
		if si.Size == 0 || si.Eps != 0.3 {
			t.Fatalf("bad structure info %+v", si)
		}
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d structures, want 2", st.Len())
	}

	// Inline n+edges form.
	var out2 BuildResponse
	code, body := postJSON(t, ts.URL+"/build", BuildRequest{
		N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}, &out2)
	if code != http.StatusOK || len(out2.Structures) != 1 {
		t.Fatalf("/build inline: %d %s", code, body)
	}

	// Error paths.
	if code, _ := postJSON(t, ts.URL+"/build", BuildRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty build accepted: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/build", BuildRequest{N: 3, Edges: [][2]int{{0, 0}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("self-loop accepted: %d", code)
	}
	// A tiny request must not be able to allocate gigabytes of adjacency.
	if code, _ := postJSON(t, ts.URL+"/build", BuildRequest{N: MaxBuildN + 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized n accepted: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/build", BuildRequest{Graph: "p 2000000000 1\ne 0 1\n"}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized text-graph header accepted: %d", code)
	}
	resp, err := http.Get(ts.URL + "/build")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /build: %d", resp.StatusCode)
	}
}

func TestDistEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	g := testGraph(t, 50, 70, 2)
	out := buildVia(t, ts, g, []int{0}, 0.3)
	fp := out.Fingerprint

	// Ground truth from a serial oracle over an identical graph.
	g2 := testGraph(t, 50, 70, 2)
	st2, err := ftbfs.Build(g2, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	o := st2.Oracle()

	var dr distResponse
	code, body := getJSON(t, fmt.Sprintf("%s/dist?graph=%s&eps=0.3&v=17", ts.URL, fp), &dr)
	if code != http.StatusOK {
		t.Fatalf("/dist: %d %s", code, body)
	}
	if want := o.Dist(17); dr.Dist != want {
		t.Fatalf("/dist = %d, want %d", dr.Dist, want)
	}

	var fail [2]int
	for _, e := range st2.Edges() {
		if !st2.IsReinforced(e[0], e[1]) {
			fail = e
			break
		}
	}
	want, err := o.DistAvoiding(17, fail[0], fail[1])
	if err != nil {
		t.Fatal(err)
	}
	code, body = getJSON(t, fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=0.3&v=17&fu=%d&fv=%d",
		ts.URL, fp, fail[0], fail[1]), &dr)
	if code != http.StatusOK {
		t.Fatalf("/dist-avoiding GET: %d %s", code, body)
	}
	if dr.Dist != want {
		t.Fatalf("/dist-avoiding = %d, want %d", dr.Dist, want)
	}

	// POST form of the same query.
	eps := 0.3
	v17 := 17
	code, body = postJSON(t, ts.URL+"/dist-avoiding", QueryRequest{
		Graph: fp, Eps: &eps, V: &v17, Fail: &fail,
	}, &dr)
	if code != http.StatusOK || dr.Dist != want {
		t.Fatalf("/dist-avoiding POST: %d %s (want dist %d)", code, body, want)
	}

	// Error paths: unknown graph (404: absent state, retryable by the
	// cluster router), missing failure, bad vertex.
	if code, _ := getJSON(t, ts.URL+"/dist?graph=ffffffffffffffff&v=1", nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph: %d, want 404", code)
	}
	if code, _ := getJSON(t, fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=0.3&v=1", ts.URL, fp), nil); code != http.StatusBadRequest {
		t.Fatalf("missing failed edge: %d", code)
	}
	if code, _ := getJSON(t, fmt.Sprintf("%s/dist?graph=%s&eps=0.3&v=999", ts.URL, fp), nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range vertex: %d", code)
	}
	// Half a failed edge must be rejected, not defaulted to vertex 0.
	if code, _ := getJSON(t, fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=0.3&v=17&fu=%d", ts.URL, fp, fail[0]), nil); code != http.StatusBadRequest {
		t.Fatalf("fu without fv accepted: %d", code)
	}
	// So must a missing target vertex — it is not "vertex 0".
	if code, _ := getJSON(t, fmt.Sprintf("%s/dist?graph=%s&eps=0.3", ts.URL, fp), nil); code != http.StatusBadRequest {
		t.Fatalf("missing v accepted on /dist: %d", code)
	}
	if code, _ := getJSON(t, fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=0.3&fu=%d&fv=%d", ts.URL, fp, fail[0], fail[1]), nil); code != http.StatusBadRequest {
		t.Fatalf("missing v accepted on /dist-avoiding: %d", code)
	}
	// NaN eps must be rejected, not become an unfindable map key (ParseFloat
	// accepts "NaN"; a NaN key would nil-deref in the store's single-flight).
	for _, bad := range []string{"NaN", "+Inf"} {
		if code, _ := getJSON(t, fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=%s&v=17&fu=%d&fv=%d",
			ts.URL, fp, bad, fail[0], fail[1]), nil); code != http.StatusBadRequest {
			t.Fatalf("eps=%s accepted: %d", bad, code)
		}
	}
}

func TestBatchQueryMatchesSerial(t *testing.T) {
	ts, _ := newTestServer(t)
	g := testGraph(t, 60, 90, 3)
	out := buildVia(t, ts, g, []int{0}, 0.25)

	g2 := testGraph(t, 60, 90, 3)
	st2, err := ftbfs.Build(g2, 0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	o := st2.Oracle()

	eps := 0.25
	req := BatchQueryRequest{Graph: out.Fingerprint, Eps: &eps}
	var want []int
	for i, e := range st2.Edges() {
		if st2.IsReinforced(e[0], e[1]) {
			continue
		}
		v := (i * 11) % 60
		req.Queries = append(req.Queries, BatchQuery{V: v, Fail: e})
		d, err := o.DistAvoiding(v, e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}
	var resp BatchQueryResponse
	code, body := postJSON(t, ts.URL+"/batch-query", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("/batch-query: %d %s", code, body)
	}
	if len(resp.Dists) != len(want) {
		t.Fatalf("got %d dists, want %d", len(resp.Dists), len(want))
	}
	if resp.Errors != nil {
		t.Fatalf("fully-valid batch carries error slots: %v", resp.Errors)
	}
	for i := range want {
		if resp.Dists[i] != want[i] {
			t.Fatalf("batch query %d: got %d, want %d", i, resp.Dists[i], want[i])
		}
	}
	if code, _ := postJSON(t, ts.URL+"/batch-query", BatchQueryRequest{Graph: out.Fingerprint}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch accepted: %d", code)
	}
}

// TestBatchQueryPartialErrors drives the per-query error-slot contract: one
// bad query must not fail the batch, and a batch may span several structures
// with per-query addressing.
func TestBatchQueryPartialErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	g := testGraph(t, 50, 70, 6)
	out := buildVia(t, ts, g, []int{0, 3}, 0.3)

	g2 := testGraph(t, 50, 70, 6)
	st0, err := ftbfs.Build(g2, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	g3 := testGraph(t, 50, 70, 6)
	st3, err := ftbfs.Build(g3, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var fail [2]int
	for _, e := range st0.Edges() {
		if !st0.IsReinforced(e[0], e[1]) {
			fail = e
			break
		}
	}
	want0, err := st0.Oracle().DistAvoiding(17, fail[0], fail[1])
	if err != nil {
		t.Fatal(err)
	}
	var fail3 [2]int
	for _, e := range st3.Edges() {
		if !st3.IsReinforced(e[0], e[1]) {
			fail3 = e
			break
		}
	}
	want3, err := st3.Oracle().DistAvoiding(9, fail3[0], fail3[1])
	if err != nil {
		t.Fatal(err)
	}

	eps := 0.3
	src3 := 3
	req := BatchQueryRequest{Graph: out.Fingerprint, Eps: &eps, Queries: []BatchQuery{
		{V: 17, Fail: fail},                           // valid, default structure (source 0)
		{V: 999, Fail: fail},                          // out-of-range target
		{V: 9, Source: &src3, Fail: fail3},            // valid, per-query source override
		{V: 5, Fail: [2]int{0, 0}},                    // not an edge
		{V: 1, Graph: "ffffffffffffffff", Fail: fail}, // unknown structure
	}}
	var resp BatchQueryResponse
	code, body := postJSON(t, ts.URL+"/batch-query", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("/batch-query with partial errors: %d %s", code, body)
	}
	if len(resp.Dists) != 5 || len(resp.Errors) != 5 {
		t.Fatalf("got %d dists / %d errors, want 5/5: %s", len(resp.Dists), len(resp.Errors), body)
	}
	if resp.Errors[0] != "" || resp.Dists[0] != want0 {
		t.Fatalf("slot 0: dist %d err %q, want %d ok", resp.Dists[0], resp.Errors[0], want0)
	}
	if resp.Errors[2] != "" || resp.Dists[2] != want3 {
		t.Fatalf("slot 2: dist %d err %q, want %d ok", resp.Dists[2], resp.Errors[2], want3)
	}
	for _, i := range []int{1, 3, 4} {
		if resp.Errors[i] == "" {
			t.Fatalf("slot %d: invalid query got no error (%s)", i, body)
		}
		if resp.Dists[i] != -1 {
			t.Fatalf("slot %d: errored slot holds dist %d, want -1", i, resp.Dists[i])
		}
	}
}

// TestRetryableErrorPrefixes pins the wire contracts the cluster router
// depends on: per-slot batch errors are strings, and the router recognises
// retryable shard state by UnknownGraphPrefix and store.PersistPrefix.
func TestRetryableErrorPrefixes(t *testing.T) {
	err := &UnknownGraphError{Fingerprint: 0xabc}
	if !strings.HasPrefix(err.Error(), UnknownGraphPrefix) {
		t.Fatalf("UnknownGraphError %q does not start with UnknownGraphPrefix %q", err, UnknownGraphPrefix)
	}
	pe := &store.PersistError{Err: fmt.Errorf("disk gone")}
	if !strings.HasPrefix(pe.Error(), store.PersistPrefix) {
		t.Fatalf("PersistError %q does not start with PersistPrefix %q", pe, store.PersistPrefix)
	}
}

func TestBuildPairs(t *testing.T) {
	ts, st := newTestServer(t)
	g := testGraph(t, 40, 50, 7)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	// Explicit pairs that are NOT a cross product.
	var out BuildResponse
	code, body := postJSON(t, ts.URL+"/build", BuildRequest{
		Graph: text.String(),
		Pairs: []BuildPair{{Source: 0, Eps: 0.25}, {Source: 5, Eps: 0.4}},
	}, &out)
	if code != http.StatusOK {
		t.Fatalf("/build pairs: %d %s", code, body)
	}
	if len(out.Structures) != 2 || out.Structures[0].Source != 0 || out.Structures[1].Eps != 0.4 {
		t.Fatalf("unexpected pair build response %+v", out)
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d structures, want 2", st.Len())
	}
}

func TestHealthAndReadyEndpoints(t *testing.T) {
	st, err := store.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	srv.SetIdentity("shard", "shard7")
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var hr HealthResponse
	code, body := getJSON(t, ts.URL+"/healthz", &hr)
	if code != http.StatusOK || !hr.OK || hr.Role != "shard" || hr.ID != "shard7" {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	var rr ReadyResponse
	code, body = getJSON(t, ts.URL+"/readyz", &rr)
	if code != http.StatusOK || !rr.Ready {
		t.Fatalf("/readyz: %d %s", code, body)
	}
	// Draining flips readiness to 503 but keeps liveness green.
	srv.SetDraining(true)
	if code, _ := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", code)
	}
	if code, _ := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz while draining: %d, want 200", code)
	}
	// Identity also lands in /stats.
	var sr StatsResponse
	if code, body := getJSON(t, ts.URL+"/stats", &sr); code != http.StatusOK || sr.ID != "shard7" || !sr.Draining {
		t.Fatalf("/stats identity: %d %s", code, body)
	}
}

// TestConcurrentDistAvoiding is the acceptance gate: many goroutines hammer
// /dist-avoiding on one structure and every answer must equal the serial
// Oracle.DistAvoiding ground truth (run under -race in CI).
func TestConcurrentDistAvoiding(t *testing.T) {
	ts, _ := newTestServer(t)
	g := testGraph(t, 80, 120, 4)
	out := buildVia(t, ts, g, []int{0}, 0.3)

	g2 := testGraph(t, 80, 120, 4)
	st2, err := ftbfs.Build(g2, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	serial := st2.Oracle()
	type q struct {
		v, fu, fv, want int
	}
	var qs []q
	for i, e := range st2.Edges() {
		if st2.IsReinforced(e[0], e[1]) {
			continue
		}
		v := (i * 17) % 80
		d, err := serial.DistAvoiding(v, e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q{v, e[0], e[1], d})
	}

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := w; i < len(qs)*3; i += workers {
				qq := qs[i%len(qs)]
				url := fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=0.3&v=%d&fu=%d&fv=%d",
					ts.URL, out.Fingerprint, qq.v, qq.fu, qq.fv)
				resp, err := client.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				var dr distResponse
				err = json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if dr.Dist != qq.want {
					t.Errorf("concurrent /dist-avoiding(v=%d, fail={%d,%d}) = %d, want %d",
						qq.v, qq.fu, qq.fv, dr.Dist, qq.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	g := testGraph(t, 30, 40, 5)
	out := buildVia(t, ts, g, []int{0}, 0.25)
	if code, _ := getJSON(t, fmt.Sprintf("%s/dist?graph=%s&v=3", ts.URL, out.Fingerprint), nil); code != http.StatusOK {
		t.Fatal("dist failed")
	}
	var sr StatsResponse
	code, body := getJSON(t, ts.URL+"/stats", &sr)
	if code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	if sr.Requests < 3 || sr.Queries != 1 || sr.Store.Graphs != 1 || sr.Store.Builds != 1 {
		t.Fatalf("unexpected stats %+v", sr)
	}
}

// TestServeDrainGrace: after shutdown is requested, the server keeps
// answering (with /readyz 503) for the grace period so balancer probes can
// observe the drain before the listener closes.
func TestServeDrainGrace(t *testing.T) {
	st, err := store.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- ServeDraining(ctx, "127.0.0.1:0", New(st), 500*time.Millisecond, func(a string) { addrc <- a })
	}()
	addr := <-addrc
	cancel()
	time.Sleep(50 * time.Millisecond) // let the drain flip land
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatalf("server stopped accepting during the drain grace: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain grace: %d, want 503", resp.StatusCode)
	}
	// Liveness and queries keep working mid-drain.
	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain grace: %v (%v)", resp, err)
	}
	resp.Body.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeDraining returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeDraining did not shut down after the grace")
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	st, err := store.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, "127.0.0.1:0", New(st), func(a string) { addrc <- a })
	}()
	addr := <-addrc
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not shut down")
	}
	if _, err := http.Get("http://" + addr + "/stats"); err == nil ||
		!strings.Contains(err.Error(), "refused") && !strings.Contains(err.Error(), "connect") {
		t.Fatalf("server still accepting after shutdown: %v", err)
	}
}

// TestDistAvoidingVertexEndpoint exercises the vertex failure model end to
// end over HTTP: build-through on first use, GET and POST forms, agreement
// with a local reference oracle for every failable vertex, and the error
// paths (missing fw, source failure, unknown graph).
func TestDistAvoidingVertexEndpoint(t *testing.T) {
	ts, st := newTestServer(t)
	g := testGraph(t, 40, 60, 6)
	fp, err := st.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	fpHex := fmt.Sprintf("%016x", fp)
	ref, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	ro := ref.Oracle()
	for w := 1; w < g.N(); w++ { // skip the source: it cannot fail
		for _, v := range []int{0, w, (w + 7) % g.N()} {
			want, err := ro.DistAvoidingVertex(v, w)
			if err != nil {
				t.Fatal(err)
			}
			var dr distResponse
			code, body := getJSON(t,
				fmt.Sprintf("%s/dist-avoiding-vertex?graph=%s&v=%d&fw=%d", ts.URL, fpHex, v, w), &dr)
			if code != http.StatusOK {
				t.Fatalf("GET (v=%d, w=%d): status %d: %s", v, w, code, body)
			}
			if dr.Dist != want {
				t.Fatalf("GET (v=%d, w=%d): dist %d, want %d", v, w, dr.Dist, want)
			}
		}
	}
	// POST form.
	v, w := 3, 5
	want, err := ro.DistAvoidingVertex(v, w)
	if err != nil {
		t.Fatal(err)
	}
	var dr distResponse
	code, body := postJSON(t, ts.URL+"/dist-avoiding-vertex",
		QueryRequest{Graph: fpHex, V: &v, FailedVertex: &w}, &dr)
	if code != http.StatusOK || dr.Dist != want {
		t.Fatalf("POST: status %d, dist %d (want %d): %s", code, dr.Dist, want, body)
	}
	// Error paths.
	if code, _ := getJSON(t, fmt.Sprintf("%s/dist-avoiding-vertex?graph=%s&v=1", ts.URL, fpHex), nil); code != http.StatusBadRequest {
		t.Fatalf("missing fw: status %d, want 400", code)
	}
	if code, _ := getJSON(t, fmt.Sprintf("%s/dist-avoiding-vertex?graph=%s&v=1&fw=0", ts.URL, fpHex), nil); code != http.StatusBadRequest {
		t.Fatalf("source failure: status %d, want 400", code)
	}
	if code, _ := getJSON(t, fmt.Sprintf("%s/dist-avoiding-vertex?graph=%016x&v=1&fw=2", ts.URL, fp+1), nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", code)
	}
}

// TestBatchQueryMixedModels sends one /batch-query vector mixing edge and
// vertex failure slots (plus deliberately bad slots of both kinds) and
// checks each answered slot against its own reference oracle.
func TestBatchQueryMixedModels(t *testing.T) {
	ts, st := newTestServer(t)
	g := testGraph(t, 40, 60, 7)
	fp, err := st.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	fpHex := fmt.Sprintf("%016x", fp)
	est, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	vst, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	eo, vo := est.Oracle(), vst.Oracle()

	var failableEdge [2]int
	for _, e := range est.Edges() {
		if !est.IsReinforced(e[0], e[1]) {
			failableEdge = e
			break
		}
	}
	eps := 0.3
	fw1, fw2, fwSrc := 5, 9, 0
	req := BatchQueryRequest{Graph: fpHex, Eps: &eps, Queries: []BatchQuery{
		{V: 7, Fail: failableEdge},              // edge slot
		{V: 11, FailedVertex: &fw1},             // vertex slot
		{V: fw1, FailedVertex: &fw1},            // vertex slot, target == failed: Unreachable
		{V: 13, FailedVertex: &fw2},             // second vertex group
		{V: 2, FailedVertex: &fwSrc},            // bad: the source cannot fail
		{V: 1, Fail: [2]int{0, 0}},              // bad: not an edge
		{Graph: "zz", V: 1, FailedVertex: &fw1}, // bad: unresolvable address
	}}
	var resp BatchQueryResponse
	code, body := postJSON(t, ts.URL+"/batch-query", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if len(resp.Dists) != len(req.Queries) || len(resp.Errors) != len(req.Queries) {
		t.Fatalf("slot counts: %d dists, %d errors", len(resp.Dists), len(resp.Errors))
	}
	wantEdge, err := eo.DistAvoiding(7, failableEdge[0], failableEdge[1])
	if err != nil {
		t.Fatal(err)
	}
	wantV1, err := vo.DistAvoidingVertex(11, fw1)
	if err != nil {
		t.Fatal(err)
	}
	wantV2, err := vo.DistAvoidingVertex(13, fw2)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range map[int]int{0: wantEdge, 1: wantV1, 2: ftbfs.Unreachable, 3: wantV2} {
		if resp.Errors[i] != "" {
			t.Fatalf("slot %d errored: %s", i, resp.Errors[i])
		}
		if resp.Dists[i] != want {
			t.Fatalf("slot %d: dist %d, want %d", i, resp.Dists[i], want)
		}
	}
	for _, i := range []int{4, 5, 6} {
		if resp.Errors[i] == "" {
			t.Fatalf("bad slot %d did not error", i)
		}
		if resp.Dists[i] != ftbfs.Unreachable {
			t.Fatalf("bad slot %d carries dist %d", i, resp.Dists[i])
		}
	}
	if !strings.Contains(resp.Errors[4], "cannot fail") {
		t.Fatalf("slot 4: unexpected error %q", resp.Errors[4])
	}
}

// TestBuildVertexSources checks that /build pre-builds vertex structures
// for vertexSources — including the vertex-only form that builds no edge
// structure at all.
func TestBuildVertexSources(t *testing.T) {
	ts, reg := newTestServer(t)
	g := testGraph(t, 30, 45, 8)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	var resp BuildResponse
	code, body := postJSON(t, ts.URL+"/build",
		BuildRequest{Graph: text.String(), VertexSources: []int{0, 4}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if len(resp.Structures) != 0 {
		t.Fatalf("vertex-only build produced %d edge structures", len(resp.Structures))
	}
	if len(resp.VertexStructures) != 2 {
		t.Fatalf("built %d vertex structures, want 2", len(resp.VertexStructures))
	}
	want, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.VertexStructures[0].Size != want.Size() || resp.VertexStructures[0].Pairs != want.Pairs() {
		t.Fatalf("vertex structure shape %+v, want size=%d pairs=%d",
			resp.VertexStructures[0], want.Size(), want.Pairs())
	}
	fp, err := reg.AddGraph(g) // idempotent: returns the registered fingerprint
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.GetVertex(fp, 4); !ok {
		t.Fatal("vertex structure for source 4 not resident after /build")
	}
	// A build asking for the source out of range is the client's 400.
	code, _ = postJSON(t, ts.URL+"/build",
		BuildRequest{Graph: text.String(), VertexSources: []int{99}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad vertex source: status %d, want 400", code)
	}
}

// TestEdgeEndpointsIgnoreStrayFailedVertex pins the model-selection rule:
// the endpoint, not a stray failedVertex/fw field, picks the failure model.
// /dist and /dist-avoiding must keep answering the edge model when a
// request carries fw, not flip to a vertex-model key and fail.
func TestEdgeEndpointsIgnoreStrayFailedVertex(t *testing.T) {
	ts, st := newTestServer(t)
	g := testGraph(t, 30, 45, 9)
	fp, err := st.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	fpHex := fmt.Sprintf("%016x", fp)
	est, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var dr distResponse
	code, body := getJSON(t, fmt.Sprintf("%s/dist?graph=%s&eps=0.3&v=4&fw=7", ts.URL, fpHex), &dr)
	if code != http.StatusOK {
		t.Fatalf("/dist with stray fw: status %d: %s", code, body)
	}
	if want := est.Oracle().Dist(4); dr.Dist != want {
		t.Fatalf("/dist with stray fw: %d, want %d", dr.Dist, want)
	}
	var edge [2]int
	for _, e := range est.Edges() {
		if !est.IsReinforced(e[0], e[1]) {
			edge = e
			break
		}
	}
	want, err := est.Oracle().DistAvoiding(4, edge[0], edge[1])
	if err != nil {
		t.Fatal(err)
	}
	code, body = getJSON(t, fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=0.3&v=4&fu=%d&fv=%d&fw=7",
		ts.URL, fpHex, edge[0], edge[1]), &dr)
	if code != http.StatusOK {
		t.Fatalf("/dist-avoiding with stray fw: status %d: %s", code, body)
	}
	if dr.Dist != want {
		t.Fatalf("/dist-avoiding with stray fw: %d, want %d", dr.Dist, want)
	}
}
