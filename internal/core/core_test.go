package core

import (
	"math"
	"testing"

	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// families returns small connected graphs exercising different regimes.
func families() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"cycle":        gen.Cycle(24),
		"grid":         gen.Grid(6, 7),
		"hypercube":    gen.Hypercube(5),
		"random40":     gen.RandomConnected(40, 60, 1),
		"random70":     gen.RandomConnected(70, 120, 2),
		"gnp":          gen.GNPConnected(50, 0.08, 3),
		"cliquechain":  gen.CliqueChain(20),
		"lowerbound":   gen.LowerBoundParams(2, 3, 5).G,
		"lowerbound2":  gen.LowerBoundParams(3, 4, 6).G,
		"caterpillar":  caterpillarGraph(),
		"dense-random": gen.GNM(30, 200, 4),
		"circulant":    gen.Circulant(30, []int{1, 5, 9}),
		"regular":      gen.RandomRegular(36, 4, 6),
	}
}

func caterpillarGraph() *graph.Graph {
	b := graph.NewBuilder(14)
	b.AddPath(0, 1, 2, 3, 4, 5, 6)
	for i := 7; i < 14; i++ {
		b.Add(i-7, i)
	}
	b.Add(7, 8)
	b.Add(12, 13)
	return b.Graph()
}

func mustBuild(t *testing.T, g *graph.Graph, s int, eps float64, opt Options) *Structure {
	t.Helper()
	st, err := Build(g, s, eps, opt)
	if err != nil {
		t.Fatalf("Build(ε=%g): %v", eps, err)
	}
	if err := CheckInvariants(st); err != nil {
		t.Fatalf("invariants (ε=%g): %v", eps, err)
	}
	return st
}

func TestBuildArgumentValidation(t *testing.T) {
	g := gen.Cycle(5)
	if _, err := Build(g, -1, 0.2, Options{}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := Build(g, 9, 0.2, Options{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := Build(g, 0, -0.1, Options{}); err == nil {
		t.Fatal("negative ε accepted")
	}
	if _, err := Build(g, 0, 1.5, Options{}); err == nil {
		t.Fatal("ε>1 accepted")
	}
	if _, err := Build(g, 0, 0, Options{Algorithm: Epsilon}); err == nil {
		t.Fatal("Epsilon with ε=0 accepted")
	}
	unfrozen := graph.New(3)
	if _, err := Build(unfrozen, 0, 0.2, Options{}); err == nil {
		t.Fatal("unfrozen graph accepted")
	}
}

func TestTreeAlgorithm(t *testing.T) {
	for name, g := range families() {
		st := mustBuild(t, g, 0, 0, Options{})
		if st.Stats.Algorithm != "tree" {
			t.Fatalf("%s: algorithm=%s", name, st.Stats.Algorithm)
		}
		if st.Size() > g.N()-1 {
			t.Fatalf("%s: tree structure has %d edges", name, st.Size())
		}
		if st.ReinforcedCount() > g.N()-1 {
			t.Fatalf("%s: r=%d > n-1", name, st.ReinforcedCount())
		}
		if err := mustVerify(st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestBaselineProtectsEverything(t *testing.T) {
	for name, g := range families() {
		st := mustBuild(t, g, 0, 1, Options{})
		if st.Stats.Algorithm != "baseline" {
			t.Fatalf("%s: algorithm=%s", name, st.Stats.Algorithm)
		}
		if st.ReinforcedCount() != 0 {
			t.Fatalf("%s: baseline needs %d reinforced edges, want 0", name, st.ReinforcedCount())
		}
		if err := mustVerify(st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Theorem of [14]: |E(H)| = O(n^{3/2}); generous constant 4.
		n := float64(g.N())
		if float64(st.Size()) > 4*n*math.Sqrt(n) {
			t.Fatalf("%s: baseline size %d exceeds 4·n^1.5=%g", name, st.Size(), 4*n*math.Sqrt(n))
		}
	}
}

func TestEpsilonValidAcrossFamiliesAndEps(t *testing.T) {
	for name, g := range families() {
		for _, eps := range []float64{0.15, 0.3, 0.45} {
			st := mustBuild(t, g, 0, eps, Options{})
			if st.Stats.Algorithm != "epsilon" {
				t.Fatalf("%s ε=%g: algorithm=%s", name, eps, st.Stats.Algorithm)
			}
			if err := mustVerify(st); err != nil {
				t.Fatalf("%s ε=%g: %v", name, eps, err)
			}
		}
	}
}

func TestEpsilonStatsConsistent(t *testing.T) {
	g := gen.LowerBoundParams(3, 4, 6).G
	en := replacement.NewEngine(g, 0)
	uncovered := 0 // the pairs T0's covered test leaves, counted apart from AllPairs
	en.ForEachFailure(func(e graph.EdgeID, _ int32, sub, distE []int32) {
		for _, v := range sub {
			if _, covered := en.LastEdgeIn(en.TreeEdges, v, e, -1, distE); !covered {
				uncovered++
			}
		}
	})
	st := mustBuild(t, g, 0, 0.3, Options{})
	if st.Stats.UncoveredPairs != uncovered {
		t.Fatalf("stats UncoveredPairs=%d, uncovered pairs counted by the sweep %d", st.Stats.UncoveredPairs, uncovered)
	}
	if st.Stats.I1Size+st.Stats.I2Size != st.Stats.UncoveredPairs {
		t.Fatal("I1+I2 != UP")
	}
	if st.Stats.K != int(math.Ceil(1/0.3))+2 {
		t.Fatalf("K=%d", st.Stats.K)
	}
	if st.Stats.Threshold != int(math.Ceil(math.Pow(float64(g.N()), 0.3))) {
		t.Fatalf("threshold=%d", st.Stats.Threshold)
	}
	if len(st.Stats.TypeACounts) > st.Stats.K {
		t.Fatal("more classification rounds than K")
	}
}

// Reinforcement stays within the analytic budget O(1/ε · n^{1−ε} · log n)
// with a generous constant.
func TestEpsilonReinforcementBudget(t *testing.T) {
	for name, g := range families() {
		for _, eps := range []float64{0.2, 0.35} {
			st := mustBuild(t, g, 0, eps, Options{})
			n := float64(g.N())
			bound := 8 / eps * math.Pow(n, 1-eps) * math.Log2(n+1)
			if float64(st.ReinforcedCount()) > bound {
				t.Fatalf("%s ε=%g: r=%d exceeds budget %g", name, eps, st.ReinforcedCount(), bound)
			}
			// backup stays within O(min{1/ε·n^{1+ε}·log n, n^{3/2}})
			sizeBound := 8 * math.Min(1/eps*math.Pow(n, 1+eps)*math.Log2(n+1), n*math.Sqrt(n)+n)
			if float64(st.Size()) > sizeBound {
				t.Fatalf("%s ε=%g: |H|=%d exceeds %g", name, eps, st.Size(), sizeBound)
			}
		}
	}
}

func TestGreedyValid(t *testing.T) {
	for name, g := range families() {
		st := mustBuild(t, g, 0, 0.3, Options{Algorithm: Greedy})
		if st.Stats.Algorithm != "greedy" {
			t.Fatalf("%s: algorithm=%s", name, st.Stats.Algorithm)
		}
		if err := mustVerify(st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// explicit budget respected (after minimisation it can only shrink)
	g := gen.LowerBoundParams(2, 4, 6).G
	st := mustBuild(t, g, 0, 0.3, Options{Algorithm: Greedy, GreedyBudget: 3})
	if st.ReinforcedCount() > 3 {
		t.Fatalf("greedy exceeded budget: r=%d", st.ReinforcedCount())
	}
}

func TestAblationsStillValid(t *testing.T) {
	g := gen.LowerBoundParams(2, 4, 6).G
	full := mustBuild(t, g, 0, 0.3, Options{})
	noS1 := mustBuild(t, g, 0, 0.3, Options{SkipPhase1: true})
	noS2 := mustBuild(t, g, 0, 0.3, Options{SkipPhase2: true})
	for _, st := range []*Structure{full, noS1, noS2} {
		if err := mustVerify(st); err != nil {
			t.Fatal(err)
		}
	}
	if noS1.Stats.S1Added != 0 {
		t.Fatal("SkipPhase1 still added S1 edges")
	}
	if noS2.Stats.S2Added != 0 || noS2.Stats.S2GlueAdded != 0 {
		t.Fatal("SkipPhase2 still added S2 edges")
	}
}

func TestVerifyCatchesBrokenStructure(t *testing.T) {
	// On a cycle, the bare tree with nothing reinforced is NOT fault
	// tolerant: failing a tree edge strands the subtree.
	g := gen.Cycle(12)
	en := replacement.NewEngine(g, 0)
	bogus := &Structure{
		G:          g,
		S:          0,
		Edges:      en.TreeEdges.Clone(),
		Reinforced: graph.NewEdgeSet(g.M()),
	}
	if len(verifyStructure(bogus, 0)) == 0 {
		t.Fatal("Verify accepted an invalid structure")
	}
	if len(verifyStructure(bogus, 2)) != 2 {
		t.Fatal("violation limit not honoured")
	}
}

func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	g := gen.Cycle(8)
	st := mustBuild(t, g, 0, 0.3, Options{})
	bad := *st
	bad.Reinforced = graph.NewEdgeSet(g.M())
	// a reinforced edge outside T0:
	t0 := replacement.NewEngine(g, 0).TreeEdges
	for id := 0; id < g.M(); id++ {
		if !t0.Contains(graph.EdgeID(id)) {
			bad.Reinforced.Add(graph.EdgeID(id))
			break
		}
	}
	if CheckInvariants(&bad) == nil {
		t.Fatal("reinforced edge outside T0 accepted")
	}
}

func TestStructureAccessors(t *testing.T) {
	g := gen.Grid(5, 5)
	st := mustBuild(t, g, 0, 0.3, Options{})
	if st.Size() != st.BackupCount()+st.ReinforcedCount() {
		t.Fatal("size != backup+reinforced")
	}
	wantCost := 2*float64(st.BackupCount()) + 10*float64(st.ReinforcedCount())
	if st.Cost(2, 10) != wantCost {
		t.Fatal("cost arithmetic wrong")
	}
	if st.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestDisconnectedGraphHandled(t *testing.T) {
	b := graph.NewBuilder(10)
	b.AddClique(0, 1, 2, 3)
	b.AddClique(4, 5, 6) // unreachable island
	b.AddPath(0, 7, 8, 9)
	g := b.Graph()
	for _, eps := range []float64{0, 0.3, 1} {
		st := mustBuild(t, g, 0, eps, Options{})
		if err := mustVerify(st); err != nil {
			t.Fatalf("ε=%g: %v", eps, err)
		}
	}
}

func TestTinyGraphs(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		b := graph.NewBuilder(n)
		for i := 0; i+1 < n; i++ {
			b.Add(i, i+1)
		}
		g := b.Graph()
		for _, eps := range []float64{0, 0.25, 1} {
			st := mustBuild(t, g, 0, eps, Options{})
			if err := mustVerify(st); err != nil {
				t.Fatalf("n=%d ε=%g: %v", n, eps, err)
			}
		}
	}
}

func TestDifferentSources(t *testing.T) {
	g := gen.RandomConnected(40, 60, 9)
	for s := 0; s < 10; s++ {
		st := mustBuild(t, g, s, 0.3, Options{})
		if err := mustVerify(st); err != nil {
			t.Fatalf("source %d: %v", s, err)
		}
	}
}
