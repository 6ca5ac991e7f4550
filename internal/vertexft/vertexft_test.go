package vertexft

import (
	"math"
	"slices"
	"testing"

	"ftbfs/internal/bfs"
	"ftbfs/internal/core"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
	"ftbfs/internal/tree"
)

func families() map[string]*graph.Graph {
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

// verify checks the vertex contract with the verifier both failure models
// share.
func verify(st *Structure, limit int) []core.Violation {
	return core.Verify(st.G, st.S, st.Edges, nil, core.ModelVertex, limit)
}

func TestBuildValidAcrossFamilies(t *testing.T) {
	for name, g := range families() {
		st, err := Build(g, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if viol := verify(st, 3); len(viol) != 0 {
			t.Fatalf("%s: contract violated: %v", name, viol)
		}
		if st.Size() > g.M() {
			t.Fatalf("%s: |H|=%d exceeds m=%d", name, st.Size(), g.M())
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(graph.New(3), 0); err == nil {
		t.Fatal("unfrozen accepted")
	}
	g := gen.Cycle(5)
	if _, err := Build(g, -1); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := Build(g, 7); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestDifferentSources(t *testing.T) {
	g := gen.RandomConnected(40, 60, 9)
	for s := 0; s < 8; s++ {
		st, err := Build(g, s)
		if err != nil {
			t.Fatalf("source %d: %v", s, err)
		}
		if viol := verify(st, 1); len(viol) != 0 {
			t.Fatalf("source %d: %v", s, viol)
		}
	}
}

// Vertex FT-BFS structures are also Θ(n^{3/2}) in the worst case; check the
// generous upper envelope on all families.
func TestSizeEnvelope(t *testing.T) {
	for name, g := range families() {
		st, err := Build(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(g.N())
		if float64(st.Size()) > 4*n*math.Sqrt(n) {
			t.Fatalf("%s: size %d above 4n^1.5", name, st.Size())
		}
	}
}

// On a path, removing an internal vertex disconnects its suffix: the tree
// alone is a valid vertex FT-BFS structure.
func TestPathNeedsNothing(t *testing.T) {
	g := gen.PathGraph(12)
	st, err := Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != g.M() {
		t.Fatalf("path structure has %d edges, want all %d (the tree)", st.Size(), g.M())
	}
	// every failure disconnects the suffix, so all pairs are vacuous
	if st.Pairs != 0 {
		t.Fatalf("path has %d non-vacuous pairs, want 0", st.Pairs)
	}
	// on a cycle, by contrast, pairs do exist
	st2, err := Build(gen.Cycle(12), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Pairs == 0 {
		t.Fatal("cycle should have non-vacuous pairs")
	}
}

// Verify must catch a broken structure: on a cycle, the tree alone cannot
// tolerate the failure of an internal tree vertex.
func TestVerifyCatchesBroken(t *testing.T) {
	g := gen.Cycle(12)
	st, err := Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// remove a non-tree edge that the construction added
	full := st.Edges.Clone()
	removed := false
	full.ForEach(func(id graph.EdgeID) {
		if removed {
			return
		}
		trial := full.Clone()
		trial.Remove(id)
		broken := &Structure{G: g, S: 0, Edges: trial}
		if len(verify(broken, 1)) > 0 {
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
func TestViolationString(t *testing.T) {
	g := gen.Cycle(6)
	tree := bfs.From(g, 0).EdgeSet(g.M())
	viol := verify(&Structure{G: g, S: 0, Edges: tree}, 1)
	if len(viol) != 1 {
		t.Fatalf("violations %v, want one", viol)
	}
	want := "vertex 1 failed, vertex 2: dist in H\\w = -1 > dist in G\\w = 4"
	if got := viol[0].String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// Pairs must count exactly the ⟨v,w⟩ pairs that purchased a new replacement
// last edge — not every reachable descendant pair — so it equals the number
// of non-tree edges of H.
func TestPairsCountsAddedEdges(t *testing.T) {
	for name, g := range families() {
		st, err := Build(g, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		treeEdges := bfs.From(g, 0).EdgeSet(g.M()).Len()
		if got, want := st.Pairs, st.Size()-treeEdges; got != want {
			t.Fatalf("%s: Pairs = %d, want |H|-|T0| = %d-%d = %d", name, got, st.Size(), treeEdges, want)
		}
	}
}

// Sparsity regression over a seeded random-graph corpus: checking candidate
// membership in H (not just the tree) must never grow the structure, and on
// graphs with shareable replacement edges it must strictly shrink at least
// once across the corpus.
func TestNoRedundantReplacementEdges(t *testing.T) {
	shrank := false
	for seed := int64(1); seed <= 8; seed++ {
		for _, mk := range []func() *graph.Graph{
			func() *graph.Graph { return gen.RandomConnected(60, 120, seed) },
			func() *graph.Graph { return gen.GNPConnected(50, 0.1, seed) },
		} {
			g := mk()
			st, err := Build(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			naive, _ := fullSearchBuild(t, g, 0, true)
			if st.Size() > naive.Len() {
				t.Fatalf("seed %d: fixed |H| = %d exceeds naive |H| = %d", seed, st.Size(), naive.Len())
			}
			if st.Size() < naive.Len() {
				shrank = true
			}
			if viol := verify(st, 1); len(viol) != 0 {
				t.Fatalf("seed %d: contract violated after sparsity fix: %v", seed, viol)
			}
		}
	}
	if !shrank {
		t.Fatal("corpus never exercised the redundant-replacement path; grow the corpus")
	}
}

// BuildWith must recycle the engine without changing the result: one
// engine, Reset across sources, yields byte-for-byte the edge sets a fresh
// Build produces.
func TestBuildWithSharedWorkspace(t *testing.T) {
	g := gen.RandomConnected(50, 100, 4)
	en := replacement.NewEngine(g, 0)
	for s := 0; s < 6; s++ {
		en.Reset(s)
		shared, err := BuildWith(en)
		if err != nil {
			t.Fatalf("source %d: %v", s, err)
		}
		fresh, err := Build(g, s)
		if err != nil {
			t.Fatal(err)
		}
		if shared.S != s || shared.Pairs != fresh.Pairs {
			t.Fatalf("source %d: source %d, pairs %d != %d", s, shared.S, shared.Pairs, fresh.Pairs)
		}
		if got, want := shared.Edges.IDs(), fresh.Edges.IDs(); !slices.Equal(got, want) {
			t.Fatalf("source %d: E(H) %v, fresh build %v", s, got, want)
		}
	}
}

// fullSearchBuild is BuildWith's loop with a full restricted BFS of G∖{w}
// per failed vertex instead of the subtree repair: the independent
// reference the repair is checked against. With treeOnly it replicates the
// pre-fix construction instead: the protection check consults the tree
// edges only, so a replacement last edge added for an earlier failed vertex
// is invisible and a second (min-index) edge is bought for later pairs it
// would have protected — the sparsity yardstick Build must never exceed.
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

// BuildWith repairs only each failed vertex's subtree; its E(H) and Pairs
// must equal the full-search reference on every family — among them a
// cycle, a path and a random tree (every failure strands the subtree), and
// a disconnected graph — with both sources of a family built on one engine
// recycled with Reset. The reference walks each failed vertex's descendants
// in stack order, the engine in preorder: the result must not depend on it.
func TestBuildWithMatchesFullSearch(t *testing.T) {
	for name, g := range families() {
		en := replacement.NewEngine(g, 0)
		for _, s := range []int{0, g.N() / 2} {
			en.Reset(s)
			st, err := BuildWith(en)
			if err != nil {
				t.Fatalf("%s s=%d: %v", name, s, err)
			}
			want, pairs := fullSearchBuild(t, g, s, false)
			if st.Pairs != pairs {
				t.Fatalf("%s s=%d: Pairs %d, full search %d", name, s, st.Pairs, pairs)
			}
			if got, ref := st.Edges.IDs(), want.IDs(); !slices.Equal(got, ref) {
				t.Fatalf("%s s=%d: E(H) %v, full search %v", name, s, got, ref)
			}
		}
	}
}
