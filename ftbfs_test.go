package ftbfs_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"ftbfs"
)

func ringWithChords(n int) *ftbfs.Graph {
	g := ftbfs.NewGraph(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	for i := 0; i < n; i += 3 {
		j := (i + n/2) % n
		if i != j && !g.HasEdge(i, j) {
			g.MustAddEdge(i, j)
		}
	}
	return g
}

func randomGraph(n, extra int, seed int64) *ftbfs.Graph {
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

func TestGraphAPI(t *testing.T) {
	g := ftbfs.NewGraph(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := g.AddEdge(2, 2); err == nil {
		t.Fatal("self-loop accepted")
	}
	if g.N() != 4 || g.M() != 1 || !g.HasEdge(1, 0) {
		t.Fatal("accessors wrong")
	}
}

func TestGraphFreezesOnBuild(t *testing.T) {
	g := ringWithChords(12)
	if _, err := ftbfs.Build(g, 0, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 5); err == nil {
		t.Fatal("AddEdge after Build accepted")
	}
}

func TestBuildAndVerifyAcrossEps(t *testing.T) {
	for _, eps := range []float64{0, 0.2, 0.4, 0.6, 1} {
		g := ringWithChords(20)
		st, err := ftbfs.Build(g, 0, eps)
		if err != nil {
			t.Fatalf("ε=%g: %v", eps, err)
		}
		if err := st.Verify(); err != nil {
			t.Fatalf("ε=%g: %v", eps, err)
		}
		if st.Size() != st.BackupCount()+st.ReinforcedCount() {
			t.Fatal("count mismatch")
		}
		if st.Epsilon() != eps || st.Source() != 0 {
			t.Fatal("metadata wrong")
		}
	}
}

func TestStructureEdgeQueries(t *testing.T) {
	g := ringWithChords(16)
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	edges := st.Edges()
	if len(edges) != st.Size() {
		t.Fatalf("Edges() returned %d, size is %d", len(edges), st.Size())
	}
	for _, e := range edges {
		if !st.Contains(e[0], e[1]) || !st.Contains(e[1], e[0]) {
			t.Fatal("Contains disagrees with Edges")
		}
	}
	for _, e := range st.ReinforcedEdges() {
		if !st.IsReinforced(e[0], e[1]) {
			t.Fatal("IsReinforced disagrees with ReinforcedEdges")
		}
	}
	if st.Contains(0, 99) || st.IsReinforced(0, 99) {
		t.Fatal("non-edges must report false")
	}
}

func TestOracleContract(t *testing.T) {
	g := randomGraph(40, 50, 7)
	st, err := ftbfs.Build(g, 0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	o := st.Oracle()
	if o.Dist(0) != 0 {
		t.Fatal("dist to source must be 0")
	}
	// for every backup edge: oracle distance after failure ≤ baseline
	for _, e := range st.Edges() {
		if st.IsReinforced(e[0], e[1]) {
			continue
		}
		for v := 0; v < 40; v += 7 {
			got, err := o.DistAvoiding(v, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			want, err := o.BaselineDistAvoiding(v, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			if want != ftbfs.Unreachable && (got == ftbfs.Unreachable || got > want) {
				t.Fatalf("failure {%d,%d}: dist(%d) in H = %d > %d in G", e[0], e[1], v, got, want)
			}
		}
	}
	// failing a reinforced edge is rejected
	if re := st.ReinforcedEdges(); len(re) > 0 {
		if _, err := o.DistAvoiding(1, re[0][0], re[0][1]); err == nil {
			t.Fatal("failing a reinforced edge accepted")
		}
	}
	if _, err := o.DistAvoiding(1, 0, 39); err == nil && !g.HasEdge(0, 39) {
		t.Fatal("failing a non-edge accepted")
	}
}

func TestSerialisationRoundTrip(t *testing.T) {
	g := ringWithChords(10)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ftbfs.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("round trip lost data")
	}
	if _, err := ftbfs.ReadGraph(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestBuildOptions(t *testing.T) {
	g := randomGraph(30, 40, 3)
	st, err := ftbfs.Build(g, 0, 0.3, ftbfs.WithAlgorithm(ftbfs.AlgoGreedy), ftbfs.WithGreedyBudget(4))
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Algorithm != "greedy" {
		t.Fatalf("algorithm=%s", st.Stats().Algorithm)
	}
	if st.ReinforcedCount() > 4 {
		t.Fatalf("budget exceeded: %d", st.ReinforcedCount())
	}
	g2 := randomGraph(30, 40, 3)
	st2, err := ftbfs.Build(g2, 0, 0.3, ftbfs.WithoutPhase1(), ftbfs.WithoutPhase2())
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildMulti(t *testing.T) {
	g := randomGraph(30, 40, 5)
	ms, err := ftbfs.BuildMulti(g, []int{0, 9, 17}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Verify(); err != nil {
		t.Fatal(err)
	}
	if ms.Size() != ms.BackupCount()+ms.ReinforcedCount() {
		t.Fatal("count mismatch")
	}
}

func TestSweepCostAndPrediction(t *testing.T) {
	g := randomGraph(40, 80, 11)
	points, best, err := ftbfs.SweepCost(g, 0, nil, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if best < 0 || best >= len(points) {
		t.Fatal("bad best index")
	}
	for _, p := range points {
		if p.Cost < points[best].Cost {
			t.Fatal("best not minimal")
		}
	}
	if eps := ftbfs.PredictOptimalEpsilon(1000, 1, 100); eps <= 0 || eps > 0.5 {
		t.Fatalf("prediction out of range: %g", eps)
	}
}

func TestWriteDOT(t *testing.T) {
	g := ringWithChords(8)
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "graph G {") {
		t.Fatal("DOT output malformed")
	}
	if st.String() == "" {
		t.Fatal("empty String")
	}
}
