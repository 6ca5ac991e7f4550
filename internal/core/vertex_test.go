package core

import (
	"math"
	"slices"
	"testing"

	"ftbfs/internal/bfs"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
	"ftbfs/internal/tree"
)

// vertexFamilies is the vertex construction's corpus: among the regular
// families, graphs where every vertex failure strands a subtree (a tree, a
// path, a star) and a disconnected graph.
func vertexFamilies() map[string]*graph.Graph {
	// two components: the source's (30 vertices) is a proper part of V
	b := graph.NewBuilder(50)
	for _, e := range gen.RandomConnected(30, 45, 8).Edges() {
		b.Add(int(e.U), int(e.V))
	}
	for _, e := range gen.RandomConnected(20, 25, 9).Edges() {
		b.Add(int(e.U)+30, int(e.V)+30)
	}
	return map[string]*graph.Graph{
		"disconnected": b.Graph(),
		"tree":         gen.RandomTree(45, 3),
		"cycle":        gen.Cycle(20),
		"grid":         gen.Grid(6, 6),
		"torus":        gen.Torus(5, 5),
		"hypercube":    gen.Hypercube(5),
		"random":       gen.RandomConnected(50, 80, 1),
		"gnp":          gen.GNPConnected(60, 0.08, 2),
		"lowerbound":   gen.LowerBoundParams(2, 3, 5).G,
		"cliquechain":  gen.CliqueChain(15),
		"star":         gen.Star(12),
		"path":         gen.PathGraph(15),
	}
}

// mustBuildVertex builds the vertex structure of (g, s) and checks its
// contract with the verifier both failure models share.
func mustBuildVertex(t *testing.T, g *graph.Graph, s int) *graph.EdgeSet {
	t.Helper()
	h, err := BuildVertex(g, s)
	if err != nil {
		t.Fatalf("BuildVertex(s=%d): %v", s, err)
	}
	if viol := Verify(g, s, h, nil, ModelVertex, 3); len(viol) != 0 {
		t.Fatalf("s=%d: vertex contract violated: %v", s, viol)
	}
	return h
}

func TestVertexBuildValidAcrossFamilies(t *testing.T) {
	for name, g := range vertexFamilies() {
		if h := mustBuildVertex(t, g, 0); h.Len() > g.M() {
			t.Fatalf("%s: |H|=%d exceeds m=%d", name, h.Len(), g.M())
		}
	}
}

func TestVertexBuildErrors(t *testing.T) {
	if _, err := BuildVertex(graph.New(3), 0); err == nil {
		t.Fatal("unfrozen accepted")
	}
	g := gen.Cycle(5)
	if _, err := BuildVertex(g, -1); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := BuildVertex(g, 7); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestVertexDifferentSources(t *testing.T) {
	g := gen.RandomConnected(40, 60, 9)
	for s := 0; s < 8; s++ {
		mustBuildVertex(t, g, s)
	}
}

// Vertex FT-BFS structures are also Θ(n^{3/2}) in the worst case; check the
// generous upper envelope on all families.
func TestVertexSizeEnvelope(t *testing.T) {
	for name, g := range vertexFamilies() {
		n := float64(g.N())
		if h := mustBuildVertex(t, g, 0); float64(h.Len()) > 4*n*math.Sqrt(n) {
			t.Fatalf("%s: size %d above 4n^1.5", name, h.Len())
		}
	}
}

// On a path, removing an internal vertex disconnects its suffix: the tree
// alone is a valid vertex FT-BFS structure, and no pair buys an edge. On a
// cycle, by contrast, pairs do.
func TestVertexPathNeedsNothing(t *testing.T) {
	g := gen.PathGraph(12)
	if h := mustBuildVertex(t, g, 0); h.Len() != g.M() {
		t.Fatalf("path structure has %d edges, want all %d (the tree)", h.Len(), g.M())
	}
	c := gen.Cycle(12)
	if h := mustBuildVertex(t, c, 0); h.Len() == c.N()-1 {
		t.Fatal("cycle structure is its tree; its pairs should buy edges")
	}
}

// Verify must catch a broken structure: on a cycle, the tree alone cannot
// tolerate the failure of an internal tree vertex.
func TestVertexVerifyCatchesBroken(t *testing.T) {
	g := gen.Cycle(12)
	full := mustBuildVertex(t, g, 0)
	removed := false
	full.ForEach(func(id graph.EdgeID) {
		if removed {
			return
		}
		trial := full.Clone()
		trial.Remove(id)
		if len(Verify(g, 0, trial, nil, ModelVertex, 1)) > 0 {
			removed = true
		}
	})
	if !removed {
		t.Fatal("no single edge removal breaks the cycle structure — verifier too weak?")
	}
}

// A vertex-model violation names the failed vertex: on a 6-cycle from 0,
// the bare BFS tree loses vertex 2 when vertex 1 fails (G still reaches it
// the other way round, at distance 4).
func TestVertexViolationString(t *testing.T) {
	g := gen.Cycle(6)
	viol := Verify(g, 0, bfs.From(g, 0).EdgeSet(g.M()), nil, ModelVertex, 1)
	if len(viol) != 1 {
		t.Fatalf("violations %v, want one", viol)
	}
	want := "vertex 1 failed, vertex 2: dist in H\\w = -1 > dist in G\\w = 4"
	if got := viol[0].String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// Sparsity regression over a seeded random-graph corpus: checking candidate
// membership in H (not just the tree) must never grow the structure, and on
// graphs with shareable replacement edges it must strictly shrink at least
// once across the corpus.
func TestVertexNoRedundantReplacementEdges(t *testing.T) {
	shrank := false
	for seed := int64(1); seed <= 8; seed++ {
		for _, mk := range []func() *graph.Graph{
			func() *graph.Graph { return gen.RandomConnected(60, 120, seed) },
			func() *graph.Graph { return gen.GNPConnected(50, 0.1, seed) },
		} {
			g := mk()
			h := mustBuildVertex(t, g, 0)
			naive, _ := fullSearchBuild(t, g, 0, true)
			if h.Len() > naive.Len() {
				t.Fatalf("seed %d: fixed |H| = %d exceeds naive |H| = %d", seed, h.Len(), naive.Len())
			}
			if h.Len() < naive.Len() {
				shrank = true
			}
		}
	}
	if !shrank {
		t.Fatal("corpus never exercised the redundant-replacement path; grow the corpus")
	}
}

// VertexEdges must recycle the engine without changing the result: one
// engine, Reset across sources, yields byte-for-byte the edge sets a fresh
// BuildVertex produces.
func TestVertexEdgesSharedWorkspace(t *testing.T) {
	g := gen.RandomConnected(50, 100, 4)
	en := replacement.NewEngine(g, 0)
	for s := 0; s < 6; s++ {
		en.Reset(s)
		shared, err := VertexEdges(en)
		if err != nil {
			t.Fatalf("source %d: %v", s, err)
		}
		fresh := mustBuildVertex(t, g, s)
		if got, want := shared.IDs(), fresh.IDs(); !slices.Equal(got, want) {
			t.Fatalf("source %d: E(H) %v, fresh build %v", s, got, want)
		}
	}
}

// fullSearchBuild is VertexEdges's loop with a full restricted BFS of G∖{w}
// per failed vertex instead of the subtree repair: the independent
// reference the repair is checked against. It also returns how many pairs
// bought an edge. With treeOnly it replicates the pre-fix construction
// instead: the protection check consults the tree edges only, so a
// replacement last edge added for an earlier failed vertex is invisible
// and a second (min-index) edge is bought for later pairs it would have
// protected — the sparsity yardstick VertexEdges must never exceed.
func fullSearchBuild(t *testing.T, g *graph.Graph, s int, treeOnly bool) (*graph.EdgeSet, int) {
	t.Helper()
	bt := bfs.From(g, s)
	// tree.Build, not BuildAncestry: this walker needs the children lists,
	// which the ancestry-only constructor deliberately skips.
	tr := tree.Build(g, bt)
	h := bt.EdgeSet(g.M())
	protecting := h
	if treeOnly {
		protecting = bt.EdgeSet(g.M())
	}
	pairs := 0
	sc := bfs.NewScratch(g.N())
	dist := make([]int32, g.N())
	banned := graph.NewVertexSet(g.N())
	var stack []int32
	for w := 0; w < g.N(); w++ {
		if w == s || tr.Depth[w] < 0 || len(tr.Children(int32(w))) == 0 {
			continue
		}
		banned.Clear()
		banned.Add(int32(w))
		sc.DistancesAvoiding(g, s, bfs.Restriction{BannedEdge: graph.NoEdge, BannedVertices: banned}, dist)
		stack = append(stack[:0], tr.Children(int32(w))...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = append(stack[:len(stack)-1], tr.Children(v)...)
			target := dist[v]
			if target == bfs.Unreachable {
				continue
			}
			cand := int32(-1)
			protected := false
			for _, a := range g.Neighbors(int(v)) {
				if a.To == int32(w) || dist[a.To] == bfs.Unreachable || dist[a.To]+1 != target {
					continue
				}
				if protecting.Contains(a.ID) {
					protected = true
					break
				}
				if cand == -1 {
					cand = a.To
				}
			}
			if protected {
				continue
			}
			if cand == -1 {
				t.Fatalf("full search: no replacement for ⟨v=%d, w=%d⟩", v, w)
			}
			pairs++
			h.Add(g.EdgeIDOf(int(cand), int(v)))
		}
	}
	return h, pairs
}

// VertexEdges repairs only each failed vertex's subtree; its E(H) must
// equal the full-search reference on every family — among them a cycle, a
// path and a random tree (every failure strands the subtree), and a
// disconnected graph — with both sources of a family built on one engine
// recycled with Reset. The reference walks each failed vertex's
// descendants in stack order, the engine in preorder: the result must not
// depend on it.
func TestVertexEdgesMatchesFullSearch(t *testing.T) {
	for name, g := range vertexFamilies() {
		en := replacement.NewEngine(g, 0)
		for _, s := range []int{0, g.N() / 2} {
			en.Reset(s)
			h, err := VertexEdges(en)
			if err != nil {
				t.Fatalf("%s s=%d: %v", name, s, err)
			}
			want, _ := fullSearchBuild(t, g, s, false)
			if got, ref := h.IDs(), want.IDs(); !slices.Equal(got, ref) {
				t.Fatalf("%s s=%d: E(H) %v, full search %v", name, s, got, ref)
			}
		}
	}
}

// A vertex structure's pair count is |H| − |T0|, computed from H and G's
// BFS tree; it is what the structure reports and its record stores. That
// holds because each non-tree edge of H was bought by exactly one ⟨v, w⟩
// pair, so the full-search reference's own purchase count must equal it on
// every family and both sources.
func TestVertexPairsCountsAddedEdges(t *testing.T) {
	for name, g := range vertexFamilies() {
		for _, s := range []int{0, g.N() / 2} {
			h := mustBuildVertex(t, g, s)
			_, pairs := fullSearchBuild(t, g, s, false)
			if t0 := bfs.From(g, s).EdgeSet(g.M()).Len(); pairs != h.Len()-t0 {
				t.Fatalf("%s s=%d: %d pairs bought an edge, want |H|-|T0| = %d-%d", name, s, pairs, h.Len(), t0)
			}
		}
	}
}
