package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ftbfs"
	"ftbfs/internal/core"
	"ftbfs/internal/store"
	"ftbfs/internal/wire"
)

// newWireServer starts one Server behind both transports: an httptest HTTP
// listener and a loopback binary-protocol listener, with a connected client.
func newWireServer(t testing.TB) (*httptest.Server, *wire.Client, *store.Store) {
	t.Helper()
	st, err := store.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = wire.Serve(ctx, ln, srv) }()
	wc := wire.NewClient(ln.Addr().String(), 2)
	t.Cleanup(wc.Close)
	return ts, wc, st
}

// TestWireDifferentialVsHTTPAndOracle is the transport-equivalence gate:
// for every failable edge and every failable vertex, the binary protocol,
// the HTTP/JSON endpoint, and the in-process oracle must agree exactly.
func TestWireDifferentialVsHTTPAndOracle(t *testing.T) {
	ts, wc, st := newWireServer(t)
	g := testGraph(t, 50, 75, 31)
	fp, err := st.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	fpHex := fmt.Sprintf("%016x", fp)
	eps := 0.3
	est, err := ftbfs.Build(g, 0, eps)
	if err != nil {
		t.Fatal(err)
	}
	vst, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	eo, vo := est.Oracle(), vst.Oracle()
	ctx := context.Background()
	epsBits := math.Float64bits(eps)

	// Intact distances.
	for v := 0; v < g.N(); v++ {
		d, werr, err := wc.Point(ctx, wire.TDist, &wire.PointQuery{
			FP: fp, EpsBits: epsBits, Source: 0, V: int32(v), A: -1, B: -1,
		})
		if err != nil || werr != nil {
			t.Fatalf("wire dist(%d): %v %v", v, err, werr)
		}
		if int(d) != eo.Dist(v) {
			t.Fatalf("wire dist(%d) = %d, oracle says %d", v, d, eo.Dist(v))
		}
	}

	// Every failable edge, two targets each, against both HTTP and oracle.
	for i, e := range est.Edges() {
		if est.IsReinforced(e[0], e[1]) {
			continue
		}
		for _, v := range []int{(i * 13) % g.N(), e[1]} {
			want, err := eo.DistAvoiding(v, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			d, werr, err := wc.Point(ctx, wire.TDistAvoiding, &wire.PointQuery{
				FP: fp, EpsBits: epsBits, Source: 0, V: int32(v), A: int32(e[0]), B: int32(e[1]),
			})
			if err != nil || werr != nil {
				t.Fatalf("wire dist-avoiding(v=%d, e={%d,%d}): %v %v", v, e[0], e[1], err, werr)
			}
			var dr distResponse
			code, body := getJSON(t, fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=%g&v=%d&fu=%d&fv=%d",
				ts.URL, fpHex, eps, v, e[0], e[1]), &dr)
			if code != http.StatusOK {
				t.Fatalf("HTTP dist-avoiding: %d %s", code, body)
			}
			if int(d) != want || dr.Dist != want {
				t.Fatalf("dist-avoiding(v=%d, e={%d,%d}): wire=%d http=%d oracle=%d",
					v, e[0], e[1], d, dr.Dist, want)
			}
		}
	}

	// Every failable vertex, two targets each.
	for w := 1; w < g.N(); w++ {
		for _, v := range []int{w, (w + 11) % g.N()} {
			want, err := vo.DistAvoidingVertex(v, w)
			if err != nil {
				t.Fatal(err)
			}
			d, werr, err := wc.Point(ctx, wire.TDistAvoidingVertex, &wire.PointQuery{
				FP: fp, Source: 0, V: int32(v), A: int32(w), B: -1,
			})
			if err != nil || werr != nil {
				t.Fatalf("wire dist-avoiding-vertex(v=%d, w=%d): %v %v", v, w, err, werr)
			}
			var dr distResponse
			code, body := getJSON(t, fmt.Sprintf("%s/dist-avoiding-vertex?graph=%s&v=%d&fw=%d",
				ts.URL, fpHex, v, w), &dr)
			if code != http.StatusOK {
				t.Fatalf("HTTP dist-avoiding-vertex: %d %s", code, body)
			}
			if int(d) != want || dr.Dist != want {
				t.Fatalf("dist-avoiding-vertex(v=%d, w=%d): wire=%d http=%d oracle=%d",
					v, w, d, dr.Dist, want)
			}
		}
	}
}

// TestBatchWireKeysMatchPointKeys resolves a vector whose slots mix the
// default graph and their own, good and bad, against the point path's key
// resolution of the same address: parsing the default graph once per vector
// must leave every slot's key and error text as a per-slot parse gives them.
func TestBatchWireKeysMatchPointKeys(t *testing.T) {
	eps, src, fw := 0.25, 3, 2
	for _, def := range []string{"00000000000000aa", "zz", ""} {
		req := BatchQueryRequest{Graph: def, Eps: &eps, Alg: "tree", Queries: []BatchQuery{
			{V: 1},
			{V: 1, Graph: "00000000000000bb"},
			{V: 1, Graph: "nothex"},
			{V: 1, Source: &src, FailedVertex: &fw},
			{V: 1, Graph: "00000000000000bb", FailedVertex: &fw},
			{V: 1, Alg: "bogus"},
		}}
		keys, _, errs := req.Wire()
		for i, q := range req.Queries {
			pq := QueryRequest{Graph: def, Eps: &eps, Alg: req.Alg}
			if q.Graph != "" {
				pq.Graph = q.Graph
			}
			if q.Source != nil {
				pq.Source = *q.Source
			}
			if q.Alg != "" {
				pq.Alg = q.Alg
			}
			want, err := pq.EdgeKey()
			if q.FailedVertex != nil {
				want, err = pq.VertexKey()
			}
			wantErr := ""
			if err != nil {
				wantErr = err.Error()
			}
			if keys[i] != want || errs[i] != wantErr {
				t.Errorf("default %q, slot %d: key %+v err %q, want %+v %q", def, i, keys[i], errs[i], want, wantErr)
			}
		}
	}
}

// TestWireBatchMatchesHTTPBatch sends the same mixed edge/vertex batch —
// good slots and bad — down both transports and requires identical answers
// slot for slot, including error text.
func TestWireBatchMatchesHTTPBatch(t *testing.T) {
	ts, wc, st := newWireServer(t)
	g := testGraph(t, 40, 60, 32)
	fp, err := st.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	fpHex := fmt.Sprintf("%016x", fp)
	eps := 0.3
	est, err := ftbfs.Build(g, 0, eps)
	if err != nil {
		t.Fatal(err)
	}
	var fe [2]int
	for _, e := range est.Edges() {
		if !est.IsReinforced(e[0], e[1]) {
			fe = e
			break
		}
	}
	epsBits := math.Float64bits(eps)
	point := func(v, a, b int) wire.PointQuery {
		return wire.PointQuery{FP: fp, EpsBits: epsBits, Source: 0, V: int32(v), A: int32(a), B: int32(b)}
	}
	vpoint := func(v, w int) wire.PointQuery {
		return wire.PointQuery{FP: fp, Source: 0, V: int32(v), A: int32(w), B: -1}
	}
	slots := []wire.BatchSlot{
		{PointQuery: point(7, fe[0], fe[1])},
		{PointQuery: vpoint(11, 5), Vertex: true},
		{PointQuery: vpoint(5, 5), Vertex: true},
		{PointQuery: point(1, 0, 0)},             // bad: not an edge
		{PointQuery: vpoint(2, 0), Vertex: true}, // bad: the source cannot fail
		{PointQuery: point(39, fe[1], fe[0])},    // reversed endpoints, same edge
	}
	dists, werrs, werr, err := wc.Batch(context.Background(), slots)
	if err != nil || werr != nil {
		t.Fatalf("wire batch: %v %v", err, werr)
	}

	fw, fwSrc := 5, 0
	httpReq := BatchQueryRequest{Graph: fpHex, Eps: &eps, Queries: []BatchQuery{
		{V: 7, Fail: fe},
		{V: 11, FailedVertex: &fw},
		{V: 5, FailedVertex: &fw},
		{V: 1, Fail: [2]int{0, 0}},
		{V: 2, FailedVertex: &fwSrc},
		{V: 39, Fail: [2]int{fe[1], fe[0]}},
	}}
	var httpResp BatchQueryResponse
	code, body := postJSON(t, ts.URL+"/batch-query", httpReq, &httpResp)
	if code != http.StatusOK {
		t.Fatalf("HTTP batch: %d %s", code, body)
	}
	if len(dists) != len(slots) || len(httpResp.Dists) != len(slots) {
		t.Fatalf("slot counts: wire %d, http %d, want %d", len(dists), len(httpResp.Dists), len(slots))
	}
	for i := range slots {
		if int(dists[i]) != httpResp.Dists[i] {
			t.Fatalf("slot %d: wire dist %d != http dist %d", i, dists[i], httpResp.Dists[i])
		}
		we := ""
		if werrs != nil {
			we = werrs[i]
		}
		he := ""
		if httpResp.Errors != nil {
			he = httpResp.Errors[i]
		}
		if we != he {
			t.Fatalf("slot %d: wire error %q != http error %q", i, we, he)
		}
	}
	if werrs == nil || werrs[3] == "" || werrs[4] == "" {
		t.Fatalf("bad slots did not error over wire: %v", werrs)
	}
}

// TestWireErrorStatuses checks the RError status codes mirror the HTTP
// statuses for the same failures.
func TestWireErrorStatuses(t *testing.T) {
	_, wc, st := newWireServer(t)
	g := testGraph(t, 20, 25, 33)
	fp, err := st.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	epsBits := math.Float64bits(0.3)

	// Unknown graph → 404.
	_, werr, err := wc.Point(ctx, wire.TDist, &wire.PointQuery{
		FP: fp + 1, EpsBits: epsBits, V: 1, A: -1, B: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if werr == nil || werr.Code != http.StatusNotFound {
		t.Fatalf("unknown graph: %v, want code 404", werr)
	}
	// Out-of-range vertex → 400.
	_, werr, err = wc.Point(ctx, wire.TDist, &wire.PointQuery{
		FP: fp, EpsBits: epsBits, V: 99999, A: -1, B: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if werr == nil || werr.Code != http.StatusBadRequest {
		t.Fatalf("bad vertex: %v, want code 400", werr)
	}
	// Source failure on the vertex model → 400.
	_, werr, err = wc.Point(ctx, wire.TDistAvoidingVertex, &wire.PointQuery{
		FP: fp, V: 1, A: 0, B: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if werr == nil || werr.Code != http.StatusBadRequest {
		t.Fatalf("source failure: %v, want code 400", werr)
	}
	// Non-finite ε is rejected before touching the store.
	_, werr, err = wc.Point(ctx, wire.TDistAvoiding, &wire.PointQuery{
		FP: fp, EpsBits: math.Float64bits(math.Inf(1)), V: 1, A: 0, B: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if werr == nil || werr.Code != http.StatusBadRequest {
		t.Fatalf("inf eps: %v, want code 400", werr)
	}
}

// residentFixture registers one graph on a fresh store and builds the edge
// structures of the given sources (ε = 0.3) plus the vertex structure of
// source 0, so they are resident. It returns the server, its store, the
// graph, its fingerprint and a local ground-truth build per source.
func residentFixture(t testing.TB, sources []int) (*Server, *store.Store, *ftbfs.Graph, uint64, map[int]*ftbfs.Structure) {
	t.Helper()
	st, err := store.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 60, 90, 7)
	fp, err := st.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[int]*ftbfs.Structure)
	for _, src := range sources {
		if _, err := st.GetOrBuild(context.Background(), store.Key{Graph: fp, Source: src, Eps: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.GetOrBuildVertex(context.Background(), fp, 0); err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{0, 10, 20, 30} {
		if ref[src], err = ftbfs.Build(g, src, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	return New(st), st, g, fp, ref
}

// edgeSlots returns per slots per source, interleaved across sources: each
// a failable edge of the source's structure and a target.
func edgeSlots(fp uint64, sources []int, ref map[int]*ftbfs.Structure, per int) []wire.BatchSlot {
	var slots []wire.BatchSlot
	for j := 0; j < per; j++ {
		for _, src := range sources {
			var failable [][2]int
			for _, e := range ref[src].Edges() {
				if !ref[src].IsReinforced(e[0], e[1]) {
					failable = append(failable, e)
				}
			}
			e := failable[(j*7)%len(failable)]
			slots = append(slots, wire.BatchSlot{PointQuery: wire.PointQuery{
				FP: fp, EpsBits: math.Float64bits(0.3), Source: int32(src),
				V: int32((j*13 + src) % 60), A: int32(e[0]), B: int32(e[1]),
			}})
		}
	}
	return slots
}

// TestBatchResidentAndColdGroups answers a wire batch whose groups are
// resident but one, which builds through on first touch: every answer
// equals the serial one, resident groups count one store hit each, and the
// cold group counts the miss and the build its read-through always did.
func TestBatchResidentAndColdGroups(t *testing.T) {
	srv, st, g, fp, ref := residentFixture(t, []int{0, 10, 20})
	slots := edgeSlots(fp, []int{0, 10, 20, 30}, ref, 6)
	vst, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 60; v += 9 {
		slots = append(slots, wire.BatchSlot{PointQuery: wire.PointQuery{FP: fp, Source: 0, V: int32(v), A: int32(v + 1)}, Vertex: true})
	}
	before := st.Stats()
	dists, errs := srv.WireBatch(context.Background(), slots)
	after := st.Stats()
	eo := map[int]*ftbfs.Oracle{}
	for src, s := range ref {
		eo[src] = s.Oracle()
	}
	vo := vst.Oracle()
	for i, sl := range slots {
		var want int
		if sl.Vertex {
			want, err = vo.DistAvoidingVertex(int(sl.V), int(sl.A))
		} else {
			want, err = eo[int(sl.Source)].DistAvoiding(int(sl.V), int(sl.A), int(sl.B))
		}
		if err != nil {
			t.Fatal(err)
		}
		if errs[i] != "" || int(dists[i]) != want {
			t.Fatalf("slot %d (%+v): answered %d %q, serial answer %d", i, sl, dists[i], errs[i], want)
		}
	}
	if d := after.Hits - before.Hits; d != 4 {
		t.Errorf("store hits rose by %d, want 4 (one per resident group)", d)
	}
	if d := after.Misses - before.Misses; d != 1 {
		t.Errorf("store misses rose by %d, want 1 (the cold group)", d)
	}
	if d := after.Builds - before.Builds; d != 1 {
		t.Errorf("store builds rose by %d, want 1 (the cold group)", d)
	}
}

// TestBatchGroupingAllocs pins the grouping slabs: a 64-slot sub-batch over
// four resident structures groups at a fixed handful of allocations, none
// per slot. (Answering it allocates nothing more, but its pooled oracles
// are dropped at random under the race detector, so only grouping is
// pinned.)
func TestBatchGroupingAllocs(t *testing.T) {
	sources := []int{0, 10, 20, 30}
	srv, _, _, fp, ref := residentFixture(t, sources)
	slots := edgeSlots(fp, sources, ref, 16)
	dists, errs := make([]int, len(slots)), make([]string, len(slots))
	srv.Batch(context.Background(), nil, slots, dists, errs)
	for i, e := range errs {
		if e != "" {
			t.Fatalf("slot %d: %s", i, e)
		}
	}
	var groups []queryGroup
	allocs := testing.AllocsPerRun(50, func() { groups = groupSlots(slots, dists, errs) })
	if len(groups) != len(sources) {
		t.Fatalf("%d groups, want %d", len(groups), len(sources))
	}
	if allocs > 7 {
		t.Fatalf("grouping a 64-slot, 4-group batch costs %.0f allocs, want at most 7: none per slot", allocs)
	}
}

// TestHandoffPullIsWireOnly pins the handoff surface: record and graph
// bytes have no HTTP route, a pull that names no source wire address is
// refused, a pull over the source's wire address installs the key, and a
// key the source cannot export is reported in errors under its key.
func TestHandoffPullIsWireOnly(t *testing.T) {
	srcTS, srcWire, srcStore := newWireServer(t)
	dstTS, dstStore := newTestServer(t)
	g := testGraph(t, 40, 60, 7)
	br := buildVia(t, srcTS, g, []int{0}, 0.3)
	key := HandoffKeyInfo{Graph: br.Fingerprint, Source: 0, Eps: 0.3}
	for _, path := range []string{
		"/handoff/record?graph=" + br.Fingerprint + "&source=0&eps=0.3&alg=0",
		"/handoff/graph?graph=" + br.Fingerprint,
	} {
		if code, _ := getJSON(t, srcTS.URL+path, nil); code != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, code)
		}
	}
	if code, body := postJSON(t, dstTS.URL+"/handoff/pull", map[string]any{"from": srcTS.URL, "keys": []HandoffKeyInfo{key}}, nil); code != http.StatusBadRequest {
		t.Fatalf("pull without a wire address: %d %s, want 400", code, body)
	}
	var res HandoffPullResponse
	code, body := postJSON(t, dstTS.URL+"/handoff/pull", HandoffPullRequest{Wire: srcWire.Addr(), Keys: []HandoffKeyInfo{key}}, &res)
	if code != http.StatusOK || res.Transferred != 1 || len(res.Errors) != 0 {
		t.Fatalf("pull over wire: %d %s, want 1 transferred", code, body)
	}
	sk, err := key.StoreKey()
	if err != nil {
		t.Fatal(err)
	}
	if !dstStore.Has(sk) || dstStore.Stats().Builds != 0 || srcStore.Stats().HandoffsOut != 1 {
		t.Fatalf("the receiver holds %v: %v, builds %d; the source exported %d", sk, dstStore.Has(sk), dstStore.Stats().Builds, srcStore.Stats().HandoffsOut)
	}
	missing := HandoffKeyInfo{Graph: br.Fingerprint, Source: 5, Eps: 0.3}
	res = HandoffPullResponse{}
	code, body = postJSON(t, dstTS.URL+"/handoff/pull", HandoffPullRequest{Wire: srcWire.Addr(), Keys: []HandoffKeyInfo{missing}}, &res)
	if code != http.StatusOK || res.Transferred != 0 || len(res.Errors) != 1 || !strings.Contains(res.Errors[0], "status 404") {
		t.Fatalf("pull of a key the source does not hold: %d %s, want 200 with one 404 error", code, body)
	}
}

// TestKeyEntryPointsAgree resolves the same edge-model addresses through
// every entry point that names a structure key — a JSON query
// (QueryRequest.EdgeKey), a wire point (keyForPoint), a /handoff/pull key
// (HandoffKeyInfo.StoreKey) and a THandoff frame (HandoffRecord) — and
// requires the same key or the same error text from each. A JSON query
// names its algorithm, so a code no construction has reaches it as no name
// at all; that column is skipped for those rows.
func TestKeyEntryPointsAgree(t *testing.T) {
	srv, st, _, fp, _ := residentFixture(t, []int{0})
	if _, err := st.GetOrBuild(context.Background(), store.Key{Graph: fp, Source: 0, Eps: 0}); err != nil {
		t.Fatal(err)
	}
	fpHex := fmt.Sprintf("%016x", fp)
	past := int(core.Greedy) + 1
	cases := []struct {
		name string
		eps  float64
		alg  int
		want store.Key
		err  string
	}{
		{name: "NaN eps", eps: math.NaN(), err: "eps must be finite, got NaN"},
		{name: "+Inf eps", eps: math.Inf(1), err: "eps must be finite, got +Inf"},
		{name: "-Inf eps", eps: math.Inf(-1), err: "eps must be finite, got -Inf"},
		{name: "-0 eps", eps: math.Copysign(0, -1), want: store.Key{Graph: fp, Eps: 0}},
		{name: "algorithm -1", eps: 0.3, alg: -1, err: "unknown algorithm code -1"},
		{name: "algorithm past greedy", eps: 0.3, alg: past, err: fmt.Sprintf("unknown algorithm code %d", past)},
		{name: "good", eps: 0.3, want: store.Key{Graph: fp, Eps: 0.3}},
	}
	for _, tc := range cases {
		check := func(entry string, got store.Key, err error) {
			t.Helper()
			switch {
			case tc.err != "" && (err == nil || err.Error() != tc.err):
				t.Errorf("%s via %s: key %+v err %v, want error %q", tc.name, entry, got, err, tc.err)
			case tc.err == "" && (err != nil || got != tc.want || math.Signbit(got.Eps)):
				t.Errorf("%s via %s: key %+v err %v, want key %+v", tc.name, entry, got, err, tc.want)
			}
		}
		if tc.alg >= 0 && tc.alg <= int(core.Greedy) {
			eps := tc.eps
			k, err := (&QueryRequest{Graph: fpHex, Eps: &eps, Alg: core.Algorithm(tc.alg).String()}).EdgeKey()
			check("JSON query", k, err)
		}
		k, err := keyForPoint(wire.TDistAvoiding, &wire.PointQuery{FP: fp, EpsBits: math.Float64bits(tc.eps), Alg: int32(tc.alg)})
		check("wire point", k, err)
		k, err = HandoffKeyInfo{Graph: fpHex, Eps: tc.eps, Alg: tc.alg}.StoreKey()
		check("handoff pull key", k, err)

		data, werr := srv.HandoffRecord(context.Background(), &wire.HandoffKey{FP: fp, EpsBits: math.Float64bits(tc.eps), Alg: int32(tc.alg)})
		if tc.err != "" {
			if werr == nil || werr.Code != http.StatusBadRequest || werr.Msg != tc.err {
				t.Errorf("%s via THandoff: %v, want 400 %q", tc.name, werr, tc.err)
			}
			continue
		}
		want, err := st.ExportRecord(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if werr != nil || !bytes.Equal(data, want) {
			t.Errorf("%s via THandoff: %d bytes, %v; want the record of %+v", tc.name, len(data), werr, tc.want)
		}
	}
}
