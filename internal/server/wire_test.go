package server

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"ftbfs"
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
