package ftbfs_test

// Tests of the one failure model both structure kinds serve through: the
// shared point and batch paths check the target once for both models,
// an oracle refuses the other model's failures, and every query form of
// both models answers without allocating.

import (
	"errors"
	"fmt"
	"testing"

	"ftbfs"
)

// TestOutOfRangeTargetRefused runs every point form of both models — plan,
// Ref and Baseline — with a target outside [0, n) and a valid failure: each
// must answer the same error instead of panicking, and the Each forms must
// carry that text in the slot, where the server relays it as a /batch-query
// slot error.
func TestOutOfRangeTargetRefused(t *testing.T) {
	g := ftbfs.NewGraph(6)
	for v := 0; v < 6; v++ {
		g.MustAddEdge(v, (v+1)%6)
	}
	est, err := ftbfs.Build(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	vst, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, w := failableEdges(est)[0], 3
	eo, vo := est.Oracle(), vst.Oracle()
	forms := []struct {
		name string
		dist func(v int) (int, error)
	}{
		{"edge/plan", func(v int) (int, error) { return eo.DistAvoiding(v, e[0], e[1]) }},
		{"edge/ref", func(v int) (int, error) { return eo.DistAvoidingRef(v, e[0], e[1]) }},
		{"edge/baseline", func(v int) (int, error) { return eo.BaselineDistAvoiding(v, e[0], e[1]) }},
		{"vertex/plan", func(v int) (int, error) { return vo.DistAvoidingVertex(v, w) }},
		{"vertex/ref", func(v int) (int, error) { return vo.DistAvoidingVertexRef(v, w) }},
		{"vertex/baseline", func(v int) (int, error) { return vo.BaselineDistAvoidingVertex(v, w) }},
		{"edge/each", func(v int) (int, error) {
			out, errs := eo.DistAvoidingEach([]ftbfs.FailureQuery{{V: v, FailedU: e[0], FailedV: e[1]}}, nil, nil)
			return out[0], errs[0]
		}},
		{"vertex/each", func(v int) (int, error) {
			out, errs := vo.DistAvoidingVertexEach([]ftbfs.VertexFailureQuery{{V: v, Failed: w}}, nil, nil)
			return out[0], errs[0]
		}},
	}
	for _, f := range forms {
		for _, v := range []int{-1, g.N(), g.N() + 7} {
			want := fmt.Sprintf("ftbfs: vertex %d out of range [0,%d)", v, g.N())
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: target %d panicked: %v", f.name, v, r)
					}
				}()
				if _, err := f.dist(v); err == nil || err.Error() != want {
					t.Errorf("%s: target %d: error %v, want %q", f.name, v, err, want)
				}
			}()
		}
	}
}

// TestOracleRefusesOtherModel checks the cross-model refusal: an edge
// structure's oracle refuses a failed vertex and a vertex structure's
// oracle a failed edge — an error from every point form, a whole-call error
// from Many (publishing nothing) and a per-slot error from Each. A vertex
// plan classifies no edge as a tree edge.
func TestOracleRefusesOtherModel(t *testing.T) {
	g, edges := buildRandom(30, 40, 3)
	est, err := ftbfs.Build(g, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	vst, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	eo, vo := est.Oracle(), vst.Oracle()
	e, w, v := failableEdges(est)[0], 1, 2
	if _, err := eo.DistAvoiding(v, e[0], e[1]); err != nil {
		t.Fatalf("edge oracle refused its own model: %v", err)
	}
	if _, err := vo.DistAvoidingVertex(v, w); err != nil {
		t.Fatalf("vertex oracle refused its own model: %v", err)
	}
	points := []struct {
		name string
		dist func() (int, error)
	}{
		{"edge oracle DistAvoidingVertex", func() (int, error) { return eo.DistAvoidingVertex(v, w) }},
		{"edge oracle DistAvoidingVertexRef", func() (int, error) { return eo.DistAvoidingVertexRef(v, w) }},
		{"edge oracle BaselineDistAvoidingVertex", func() (int, error) { return eo.BaselineDistAvoidingVertex(v, w) }},
		{"vertex oracle DistAvoiding", func() (int, error) { return vo.DistAvoiding(v, e[0], e[1]) }},
		{"vertex oracle DistAvoidingRef", func() (int, error) { return vo.DistAvoidingRef(v, e[0], e[1]) }},
		{"vertex oracle BaselineDistAvoiding", func() (int, error) { return vo.BaselineDistAvoiding(v, e[0], e[1]) }},
	}
	for _, p := range points {
		if _, err := p.dist(); err == nil {
			t.Errorf("%s: accepted the other model's failure", p.name)
		}
	}

	vqs := []ftbfs.VertexFailureQuery{{V: v, Failed: w}, {V: v + 1, Failed: w}}
	eqs := []ftbfs.FailureQuery{{V: v, FailedU: e[0], FailedV: e[1]}, {V: v + 1, FailedU: e[0], FailedV: e[1]}}
	sentinel := []int{-777, -777}
	if _, err := eo.DistAvoidingVertexMany(vqs, sentinel); err == nil {
		t.Error("edge oracle DistAvoidingVertexMany accepted vertex failures")
	}
	if _, err := vo.DistAvoidingMany(eqs, sentinel); err == nil {
		t.Error("vertex oracle DistAvoidingMany accepted edge failures")
	}
	if sentinel[0] != -777 || sentinel[1] != -777 {
		t.Errorf("Many published %v on a refused batch", sentinel)
	}
	out, errs := eo.DistAvoidingVertexEach(vqs, nil, nil)
	out2, errs2 := vo.DistAvoidingEach(eqs, nil, nil)
	out, errs = append(out, out2...), append(errs, errs2...)
	for i := range out {
		if errs[i] == nil || out[i] != ftbfs.Unreachable {
			t.Errorf("Each slot %d: (%d, %v), want (Unreachable, an error)", i, out[i], errs[i])
		}
	}

	vplan := vst.Plan()
	for _, e := range append(edges, [2]int{-1, g.N()}) {
		if vplan.IsTreeEdge(e[0], e[1]) || vplan.SubtreeSize(e[0], e[1]) != 0 {
			t.Errorf("vertex plan: edge %v classified as a tree edge (subtree %d)", e, vplan.SubtreeSize(e[0], e[1]))
		}
	}
}

// TestQueryZeroAllocs pins the serving paths of both models to zero
// allocations per query: {edge, vertex} × {failure off the target's tree
// path, subtree repair} × {point query, grouped Each batch}. The off-path
// rows answer from the intact vector; the repair rows alternate two
// distinct tree failures, so every query of every run repairs a subtree.
// The vertex off-path point row is a leaf failure of the denser-random
// corpus graph, queried for the next vertex.
func TestQueryZeroAllocs(t *testing.T) {
	g, edges := buildRandom(60, 120, 7)
	est, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	eplan := est.Plan()
	var offEdge, repairEdge []ftbfs.FailureQuery
	for _, e := range edges {
		if est.IsReinforced(e[0], e[1]) {
			continue
		}
		if !eplan.IsTreeEdge(e[0], e[1]) {
			offEdge = append(offEdge, ftbfs.FailureQuery{V: e[0], FailedU: e[0], FailedV: e[1]})
			continue
		}
		// The deeper endpoint of a tree edge lies in the subtree its
		// failure cuts off.
		child := e[0]
		if est.Dist(e[1]) > est.Dist(e[0]) {
			child = e[1]
		}
		repairEdge = append(repairEdge, ftbfs.FailureQuery{V: child, FailedU: e[0], FailedV: e[1]})
	}

	tc := vertexCorpus()["denser-random"]
	vst, err := ftbfs.BuildVertex(tc.g, tc.source)
	if err != nil {
		t.Fatal(err)
	}
	vplan := vst.Plan()
	n := tc.g.N()
	var offVertex, repairVertex []ftbfs.VertexFailureQuery
	for w := 0; w < n; w++ {
		if w == tc.source {
			continue
		}
		if vplan.VertexSubtreeSize(w) == 0 {
			// A failed leaf of H's BFS tree is on nobody's tree path.
			offVertex = append(offVertex, ftbfs.VertexFailureQuery{V: (w + 1) % n, Failed: w})
			continue
		}
		for v := 0; v < n; v++ {
			if vplan.OnTreePath(w, v) {
				repairVertex = append(repairVertex, ftbfs.VertexFailureQuery{V: v, Failed: w})
				break
			}
		}
	}
	for name, qs := range map[string]int{
		"edge off-path": len(offEdge), "edge repair": len(repairEdge),
		"vertex off-path": len(offVertex), "vertex repair": len(repairVertex),
	} {
		if qs < 2 {
			t.Fatalf("fixture has %d %s queries, want 2", qs, name)
		}
	}
	offEdge, repairEdge, offVertex, repairVertex = offEdge[:2], repairEdge[:2], offVertex[:2], repairVertex[:2]

	eo, vo := est.Oracle(), vst.Oracle()
	out, errs := make([]int, 2), make([]error, 2)
	edgePoint := func(qs []ftbfs.FailureQuery) func() error {
		return func() error {
			for _, q := range qs {
				if _, err := eo.DistAvoiding(q.V, q.FailedU, q.FailedV); err != nil {
					return err
				}
			}
			return nil
		}
	}
	vertexPoint := func(qs []ftbfs.VertexFailureQuery) func() error {
		return func() error {
			for _, q := range qs {
				if _, err := vo.DistAvoidingVertex(q.V, q.Failed); err != nil {
					return err
				}
			}
			return nil
		}
	}
	edgeEach := func(qs []ftbfs.FailureQuery) func() error {
		return func() error { eo.DistAvoidingEach(qs, out, errs); return errors.Join(errs...) }
	}
	vertexEach := func(qs []ftbfs.VertexFailureQuery) func() error {
		return func() error { vo.DistAvoidingVertexEach(qs, out, errs); return errors.Join(errs...) }
	}
	rows := []struct {
		name string
		run  func() error
	}{
		{"edge/off-path/point", edgePoint(offEdge)},
		{"edge/off-path/each", edgeEach(offEdge)},
		{"edge/repair/point", edgePoint(repairEdge)},
		{"edge/repair/each", edgeEach(repairEdge)},
		{"vertex/off-path/point", vertexPoint(offVertex)},
		{"vertex/off-path/each", vertexEach(offVertex)},
		{"vertex/repair/point", vertexPoint(repairVertex)},
		{"vertex/repair/each", vertexEach(repairVertex)},
	}
	for _, r := range rows {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := r.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", r.name, allocs)
		}
	}
}
