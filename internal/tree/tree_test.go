package tree

import (
	"math"
	"math/rand"
	"testing"

	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
)

// buildTree returns the Tree for a BFS from s on g.
func buildTree(g *graph.Graph, s int) *Tree {
	return Build(g, bfs.From(g, s))
}

// childEndpoint returns the deeper endpoint of tree edge id (the paper
// directs tree edges away from the root).
func childEndpoint(t *Tree, g *graph.Graph, id graph.EdgeID) int32 {
	e := g.EdgeByID(id)
	if t.Depth[e.U] > t.Depth[e.V] {
		return e.U
	}
	return e.V
}

// caterpillar: path 0-1-2-3-4 with leaves hanging off each spine vertex.
func caterpillar() *graph.Graph {
	b := graph.NewBuilder(10)
	b.AddPath(0, 1, 2, 3, 4)
	b.Add(1, 5)
	b.Add(2, 6)
	b.Add(2, 7)
	b.Add(3, 8)
	b.Add(4, 9)
	return b.Graph()
}

func TestSubtreeSizes(t *testing.T) {
	g := caterpillar()
	tr := buildTree(g, 0)
	if tr.Size[0] != 10 {
		t.Fatalf("Size[root]=%d", tr.Size[0])
	}
	if tr.Size[2] != 7 { // 2,6,7,3,8,4,9
		t.Fatalf("Size[2]=%d want 7", tr.Size[2])
	}
	if tr.Size[9] != 1 {
		t.Fatalf("Size[9]=%d", tr.Size[9])
	}
}

func TestIsAncestorAndLCA(t *testing.T) {
	g := caterpillar()
	tr := buildTree(g, 0)
	if !tr.InSubtree(9, 2) || tr.InSubtree(2, 9) {
		t.Fatal("InSubtree wrong on 2/9")
	}
	if !tr.InSubtree(3, 3) {
		t.Fatal("InSubtree must be reflexive")
	}
	if tr.InSubtree(6, 5) {
		t.Fatal("6 is not in the subtree of 5")
	}
}

func randomConnected(n, extra int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.Add(i, rng.Intn(i))
	}
	for k := 0; k < extra; k++ {
		b.Add(rng.Intn(n), rng.Intn(n))
	}
	return b.Graph()
}

func TestDecompositionPartition(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomConnected(100, 50, seed)
		tr := buildTree(g, 0)
		// every vertex on exactly one path at its recorded position
		seen := make([]int, g.N())
		for pi, path := range tr.Paths {
			if cap(path) != len(path) {
				t.Fatalf("path %d has room to grow into the next one", pi)
			}
			for pos, v := range path {
				seen[v]++
				if tr.PathOf[v] != int32(pi) || tr.PosOf[v] != int32(pos) {
					t.Fatalf("PathOf/PosOf inconsistent for %d", v)
				}
				if pos > 0 && tr.Parent[v] != path[pos-1] {
					t.Fatalf("path %d not a descending chain at %d", pi, v)
				}
			}
		}
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("vertex %d on %d paths", v, c)
			}
		}
		// glue edges + path edges partition tree edges
		glue := map[graph.EdgeID]bool{}
		for _, e := range tr.GlueEdges {
			glue[e] = true
		}
		pathEdges := 0
		for _, path := range tr.Paths {
			pathEdges += len(path) - 1
		}
		if pathEdges+len(tr.GlueEdges) != g.N()-1 {
			t.Fatalf("edges: %d path + %d glue != %d tree", pathEdges, len(tr.GlueEdges), g.N()-1)
		}
		for _, path := range tr.Paths {
			for pos := 1; pos < len(path); pos++ {
				if glue[tr.ParentEdge[path[pos]]] {
					t.Fatal("path edge also glue edge")
				}
			}
		}
	}
}

// Fact 3.3: every subtree hanging off a path has at most half the vertices
// of the subtree the path was carved from; recursion depth is O(log n).
func TestFact33HalvingAndLevels(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		n := 300
		g := randomConnected(n, 0, seed) // pure random tree
		tr := buildTree(g, 0)
		limit := int32(math.Ceil(math.Log2(float64(n)))) + 1
		if tr.MaxLevel > limit {
			t.Fatalf("seed %d: MaxLevel=%d exceeds log bound %d", seed, tr.MaxLevel, limit)
		}
		for _, path := range tr.Paths {
			head := path[0]
			if tr.Parent[head] < 0 {
				continue
			}
			parentPathHead := tr.Paths[tr.PathOf[tr.Parent[head]]][0]
			if 2*tr.Size[head] > tr.Size[parentPathHead] {
				t.Fatalf("seed %d: hanging subtree at %d has size %d > half of %d",
					seed, head, tr.Size[head], tr.Size[parentPathHead])
			}
		}
	}
}

// Fact 4.1: for every v, π(s,v) meets O(log n) decomposition paths and
// O(log n) glue edges.
func TestFact41LogBounds(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		n := 400
		g := randomConnected(n, 200, seed)
		tr := buildTree(g, 0)
		limit := int(math.Ceil(math.Log2(float64(n)))) + 2
		for v := int32(0); v < int32(n); v++ {
			segs := tr.SegmentsTo(v)
			if len(segs) > limit {
				t.Fatalf("v=%d meets %d paths > %d", v, len(segs), limit)
			}
			glues := tr.GlueEdgesOn(v)
			if len(glues) != len(segs)-1 {
				t.Fatalf("v=%d: %d glue edges for %d segments", v, len(glues), len(segs))
			}
			// segments really cover π(s,v): total vertices = depth+1
			total := 0
			x := v
			for _, s := range segs {
				if tr.Paths[s.Path][s.BottomPos] != x {
					t.Fatalf("segment bottom mismatch for v=%d", v)
				}
				total += int(s.BottomPos) + 1
				x = tr.Parent[tr.Paths[s.Path][0]]
			}
			if total != int(tr.Depth[v])+1 {
				t.Fatalf("v=%d: segments cover %d vertices, want %d", v, total, tr.Depth[v]+1)
			}
		}
	}
}

func TestChildEndpointAndOnRootPath(t *testing.T) {
	g := caterpillar()
	tr := buildTree(g, 0)
	id := g.EdgeIDOf(2, 3)
	if childEndpoint(tr, g, id) != 3 {
		t.Fatal("child endpoint of (2,3) must be 3")
	}
}

func TestUnreachableVertices(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddPath(0, 1, 2)
	b.Add(3, 4)
	g := b.Graph()
	tr := buildTree(g, 0)
	if tr.PathOf[3] != -1 || tr.Depth[3] != -1 {
		t.Fatal("unreachable vertex should be unmarked")
	}
	if tr.InSubtree(3, 0) || tr.InSubtree(3, 3) || tr.InSubtree(0, 3) {
		t.Fatal("subtree tests with unreachable must be false")
	}
	if tr.SegmentsTo(3) != nil {
		t.Fatal("SegmentsTo(unreachable) must be nil")
	}
}

func TestPathGraphDecomposition(t *testing.T) {
	b := graph.NewBuilder(50)
	for i := 0; i+1 < 50; i++ {
		b.Add(i, i+1)
	}
	g := b.Graph()
	tr := buildTree(g, 0)
	if len(tr.Paths) != 1 || tr.MaxLevel != 0 || len(tr.GlueEdges) != 0 {
		t.Fatalf("path graph should decompose into one path: %d paths, level %d, %d glue",
			len(tr.Paths), tr.MaxLevel, len(tr.GlueEdges))
	}
	if len(tr.Paths[0]) != 50 {
		t.Fatal("root path should span everything")
	}
}

func TestStarDecomposition(t *testing.T) {
	b := graph.NewBuilder(21)
	for i := 1; i <= 20; i++ {
		b.Add(0, i)
	}
	g := b.Graph()
	tr := buildTree(g, 0)
	if len(tr.Paths) != 20 {
		t.Fatalf("star should give 20 paths (1 spine + 19 singletons), got %d", len(tr.Paths))
	}
	if len(tr.GlueEdges) != 19 {
		t.Fatalf("19 glue edges expected, got %d", len(tr.GlueEdges))
	}
	if tr.MaxLevel != 1 {
		t.Fatalf("MaxLevel=%d want 1", tr.MaxLevel)
	}
}

func TestSubtreePreorderIntervals(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomConnected(70, int(seed)*25, seed)
		tr := buildTree(g, 0)
		if len(tr.PreOrder) != int(tr.Size[tr.Root]) {
			t.Fatalf("seed %d: preorder has %d vertices, want %d", seed, len(tr.PreOrder), tr.Size[tr.Root])
		}
		for i, v := range tr.PreOrder {
			if tr.PreIndex[v] != int32(i) {
				t.Fatalf("seed %d: PreIndex[%d] = %d, want %d", seed, v, tr.PreIndex[v], i)
			}
		}
		for v := int32(0); int(v) < g.N(); v++ {
			sub := tr.Subtree(v)
			if tr.Depth[v] < 0 {
				if sub != nil || tr.PreIndex[v] != -1 {
					t.Fatalf("seed %d: unreachable %d has a subtree", seed, v)
				}
				continue
			}
			if int32(len(sub)) != tr.Size[v] || sub[0] != v {
				t.Fatalf("seed %d: Subtree(%d) has %d vertices starting at %d, want %d starting at %d",
					seed, v, len(sub), sub[0], tr.Size[v], v)
			}
			// The interval must contain exactly the descendants-or-self, as
			// a walk up the parents finds them.
			below := func(w int32) bool {
				for x := w; x >= 0; x = tr.Parent[x] {
					if x == v {
						return true
					}
				}
				return false
			}
			for _, w := range sub {
				if !below(w) {
					t.Fatalf("seed %d: %d in Subtree(%d) but not a descendant", seed, w, v)
				}
			}
			for w := int32(0); int(w) < g.N(); w++ {
				if got, want := tr.InSubtree(w, v), below(w); got != want {
					t.Fatalf("seed %d: InSubtree(%d,%d) = %v, parent walk says %v", seed, w, v, got, want)
				}
			}
		}
	}
}

// TestBuildAncestryAllocs pins the ancestry pass, which every query plan
// and store load-through runs, to its allocations: the Tree itself, one
// slab for Size and PreIndex, and PreOrder.
func TestBuildAncestryAllocs(t *testing.T) {
	g := randomConnected(200, 300, 1)
	bt := bfs.From(g, 0)
	if got := testing.AllocsPerRun(20, func() { BuildAncestry(g.N(), bt) }); got != 3 {
		t.Fatalf("BuildAncestry allocates %v times, want 3", got)
	}
}

// TestDecomposeAllocs pins the Fact 3.3 decomposition to its allocations:
// the child lists (counts, one flat slab, the slice headers), PathOf,
// PosOf, the path slab, and Paths, PathLevel, GlueEdges and the work stack,
// each sized once from the leaf count. On a bushy random tree an
// append-grown list would show up as extra allocations.
func TestDecomposeAllocs(t *testing.T) {
	g := randomConnected(200, 300, 1)
	bt := bfs.From(g, 0)
	if leaves := len(buildTree(g, 0).Paths); leaves < 20 {
		t.Fatalf("fixture has %d leaves, want a bushy tree", leaves)
	}
	got := testing.AllocsPerRun(20, func() { BuildAncestry(g.N(), bt).Decompose() })
	if got -= 3; got != 10 { // BuildAncestry's own three
		t.Fatalf("Decompose allocates %v times, want 10", got)
	}
}
