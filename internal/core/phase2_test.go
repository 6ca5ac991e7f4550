package core

import (
	"slices"
	"testing"

	"ftbfs/internal/bfs"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
	"ftbfs/internal/tree"
)

// pathTo returns the canonical shortest path π(s,v) of bt as a vertex
// sequence from the source to v.
func pathTo(bt *bfs.Tree, v int) []int32 {
	path := make([]int32, bt.Dist[v]+1)
	for i, x := len(path)-1, int32(v); i >= 0; i, x = i-1, bt.Parent[x] {
		path[i] = x
	}
	return path
}

// Direct unit tests of the Phase S2 covering logic.

func TestPhase2GlueEdgesCovered(t *testing.T) {
	// After running S2 alone (sets empty) every pair protecting a glue edge
	// must have its last edge in H (Sub-Phase S2.1 / Claim 4.12).
	g := gen.RandomConnected(60, 100, 13)
	en := replacement.NewEngine(g, 0)
	en.T.Decompose() // GlueEdges is E⁻(TD); the engine keeps only ancestry
	pairs := en.AllPairs()
	ix := buildPairIndex(en, pairs)
	h := en.TreeEdges.Clone()
	runPhase2(ix, h, nil, 2)
	glue := map[graph.EdgeID]bool{}
	for _, e := range en.T.GlueEdges {
		glue[e] = true
	}
	for _, p := range pairs {
		if glue[p.Edge] && !h.Contains(p.LastID) {
			t.Fatalf("glue-edge pair ⟨%d,%v⟩ left uncovered", p.V, g.EdgeByID(p.Edge))
		}
	}
}

func TestPhase2LightSegmentsFullyCovered(t *testing.T) {
	// With a huge threshold every subsegment is light, so S2 must cover
	// every pair of the given (∼)-set.
	g := gen.LowerBoundParams(2, 5, 6).G
	en := replacement.NewEngine(g, 0)
	pairs := en.AllPairs()
	ix := buildPairIndex(en, pairs)
	h := en.TreeEdges.Clone()
	all := make([]int32, len(pairs))
	for i := range all {
		all[i] = int32(i)
	}
	runPhase2(ix, h, [][]int32{all}, 1<<20)
	for i, p := range pairs {
		if !h.Contains(p.LastID) {
			t.Fatalf("pair %d ⟨%d,%v⟩ uncovered despite infinite threshold", i, p.V, g.EdgeByID(p.Edge))
		}
	}
}

func TestPhase2UpmostPairsAlwaysAdded(t *testing.T) {
	// Even with threshold 1 (every populated segment heavy unless it has a
	// single distinct last edge), the upmost pair of each segment is added:
	// for every terminal with pairs, at least one last edge appears.
	g := gen.LowerBoundParams(3, 4, 8).G
	en := replacement.NewEngine(g, 0)
	pairs := en.AllPairs()
	ix := buildPairIndex(en, pairs)
	h := en.TreeEdges.Clone()
	before := h.Len()
	all := make([]int32, len(pairs))
	for i := range all {
		all[i] = int32(i)
	}
	glueAdded, added := runPhase2(ix, h, [][]int32{all}, 1)
	if h.Len() == before {
		t.Fatal("S2 added nothing")
	}
	if glueAdded+added != h.Len()-before {
		t.Fatalf("accounting wrong: %d+%d vs %d", glueAdded, added, h.Len()-before)
	}
	// every terminal with at least one pair got at least one covered pair
	// (its upmost segment representative)
	covered := map[int32]bool{}
	hasPairs := map[int32]bool{}
	for _, p := range pairs {
		hasPairs[p.V] = true
		if h.Contains(p.LastID) {
			covered[p.V] = true
		}
	}
	for v := range hasPairs {
		if !covered[v] {
			t.Fatalf("terminal %d has pairs but no covered pair after S2", v)
		}
	}
}

func TestPhase1BudgetRespected(t *testing.T) {
	// Each S1 iteration adds at most threshold new last edges per terminal
	// per type; with K=1 and threshold=1, the number of added edges is at
	// most 2 × #terminals.
	g := gen.LowerBoundParams(3, 5, 10).G
	en := replacement.NewEngine(g, 0)
	pairs := en.AllPairs()
	ix := buildPairIndex(en, pairs)
	i1, _ := ix.splitI1I2()
	h := en.TreeEdges.Clone()
	res := runPhase1(ix, h, i1, 1, 1)
	terminals := map[int32]bool{}
	for _, p := range i1 {
		terminals[ix.pairs[p].V] = true
	}
	if res.Added > 2*len(terminals) {
		t.Fatalf("S1 added %d edges for %d terminals with budget 1", res.Added, len(terminals))
	}
	if len(res.ACounts) != 1 {
		t.Fatalf("expected exactly one iteration, got %d", len(res.ACounts))
	}
	// leftovers are exactly the A/B pairs whose last edge is missing
	for _, p := range res.Leftover {
		if h.Contains(ix.lastEdgeOf(p)) {
			t.Fatal("leftover pair already covered")
		}
	}
}

func TestEdgeIndexOfConsistency(t *testing.T) {
	g := gen.RandomConnected(40, 60, 21)
	en := replacement.NewEngine(g, 0)
	pairs := en.AllPairs()
	ix := buildPairIndex(en, pairs)
	for i, p := range pairs {
		idx := edgeIndexOf(ix, int32(i))
		if idx < 0 || int32(idx) >= en.T.Depth[p.V] {
			t.Fatalf("edge index %d outside [0, depth(v)=%d)", idx, en.T.Depth[p.V])
		}
		// the edge at index idx on π(s,v) is p.Edge
		pi := pathTo(en.BT, int(p.V))
		if g.EdgeIDOf(int(pi[idx]), int(pi[idx+1])) != p.Edge {
			t.Fatal("edge index does not address the failing edge")
		}
	}
}

// The engine keeps only T0's ancestry, so the Fact 3.3 decomposition is paid
// for by the builds that read it. Tree, Baseline and Greedy builds (and an
// Epsilon build without Phase S2) leave the engine's tree undecomposed; an
// Epsilon group decomposes it once — a second decomposition would append
// its paths and glue edges again — and later groups on the same source
// reuse it. Reset drops it with the old tree.
func TestOnlyPhase2Decomposes(t *testing.T) {
	g := gen.RandomConnected(60, 100, 13)
	en := replacement.NewEngine(g, 0)
	if _, err := BuildGroup(en, []GroupItem{
		{Eps: 0, Opt: Options{Algorithm: Tree}},
		{Eps: 1, Opt: Options{Algorithm: Baseline}},
		{Eps: 0.3, Opt: Options{Algorithm: Greedy}},
		{Eps: 0.2, Opt: Options{SkipPhase2: true}},
	}); err != nil {
		t.Fatal(err)
	}
	if en.T.PathOf != nil {
		t.Fatal("a group without Phase S2 decomposed the engine's tree")
	}
	want := tree.Build(g, en.BT)
	var first *int32
	for round := 0; round < 2; round++ {
		if _, err := BuildGroup(en, []GroupItem{{Eps: 0.2}, {Eps: 0.3}}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(en.T.PathOf, want.PathOf) || len(en.T.Paths) != len(want.Paths) ||
			!slices.Equal(en.T.GlueEdges, want.GlueEdges) {
			t.Fatalf("round %d: %d paths and %d glue edges, want one decomposition (%d, %d)",
				round, len(en.T.Paths), len(en.T.GlueEdges), len(want.Paths), len(want.GlueEdges))
		}
		if round == 0 {
			first = &en.T.PathOf[0]
		} else if first != &en.T.PathOf[0] {
			t.Fatal("a second Epsilon group on the same source decomposed the tree again")
		}
	}
	en.Reset(5)
	if en.T.PathOf != nil {
		t.Fatal("Reset kept the old source's decomposition")
	}
}
