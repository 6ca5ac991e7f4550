package ftbfs_test

import (
	"math/rand"
	"sync"
	"testing"

	"ftbfs"
	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
)

// buildRandom returns a random connected graph plus every edge it inserted,
// so differential tests can fail each edge of G — including edges the
// structure never bought.
func buildRandom(n, extra int, seed int64) (*ftbfs.Graph, [][2]int) {
	rng := rand.New(rand.NewSource(seed))
	g := ftbfs.NewGraph(n)
	var edges [][2]int
	add := func(u, v int) {
		g.MustAddEdge(u, v)
		edges = append(edges, [2]int{u, v})
	}
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i))
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			add(u, v)
		}
	}
	return g, edges
}

// TestQueryPlanMatchesReference is the property-style differential test of
// the serving fast path: across random graphs, ε values, and EVERY failable
// edge of the base graph (tree edges, non-tree structure edges, edges
// outside H, and disconnecting bridges), the plan-backed DistAvoiding must
// return exactly what the reference full-BFS DistAvoidingRef returns for
// every target, Unreachable included.
func TestQueryPlanMatchesReference(t *testing.T) {
	cases := []struct {
		n, extra int
		seed     int64
		eps      float64
	}{
		{40, 0, 1, 0.25}, // a bare tree: every failure disconnects its subtree
		{60, 8, 2, 0},    // a few chords; mostly bridges
		{60, 60, 3, 0.25},
		{60, 60, 4, 0.5},
		{50, 100, 5, 1}, // dense; baseline algorithm
		{64, 40, 6, 0.3},
	}
	for _, tc := range cases {
		g, edges := buildRandom(tc.n, tc.extra, tc.seed)
		st, err := ftbfs.Build(g, 0, tc.eps)
		if err != nil {
			t.Fatal(err)
		}
		o := st.Oracle()
		for _, e := range edges {
			if st.IsReinforced(e[0], e[1]) {
				if _, err := o.DistAvoiding(0, e[0], e[1]); err == nil {
					t.Fatalf("n=%d eps=%g: failing reinforced edge %v accepted", tc.n, tc.eps, e)
				}
				continue
			}
			for v := 0; v < g.N(); v++ {
				got, err := o.DistAvoiding(v, e[0], e[1])
				if err != nil {
					t.Fatal(err)
				}
				want, err := o.DistAvoidingRef(v, e[0], e[1])
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("n=%d eps=%g seed=%d: DistAvoiding(%d, %d, %d) = %d, reference %d",
						tc.n, tc.eps, tc.seed, v, e[0], e[1], got, want)
				}
			}
		}
	}
}

// TestDistAvoidingManyGroupedMatchesReference drives the grouped batch path
// with shuffled query vectors that repeat failed edges, so the
// repair-once-serve-many reuse is exercised and compared answer-for-answer
// with the reference oracle.
func TestDistAvoidingManyGroupedMatchesReference(t *testing.T) {
	g, edges := buildRandom(80, 100, 9)
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	o := st.Oracle()
	rng := rand.New(rand.NewSource(99))
	var failable [][2]int
	for _, e := range edges {
		if !st.IsReinforced(e[0], e[1]) {
			failable = append(failable, e)
		}
	}
	for round := 0; round < 10; round++ {
		queries := make([]ftbfs.FailureQuery, 48)
		for i := range queries {
			e := failable[rng.Intn(min(8+round, len(failable)))] // heavy duplication
			queries[i] = ftbfs.FailureQuery{V: rng.Intn(g.N()), FailedU: e[0], FailedV: e[1]}
		}
		got, err := o.DistAvoidingMany(queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want, err := o.DistAvoidingRef(q.V, q.FailedU, q.FailedV)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("round %d query %d (%+v): batched %d, reference %d", round, i, q, got[i], want)
			}
		}
	}
}

// TestDistAvoidingManyValidatesUpFront asserts the whole batch is validated
// before any result is published: a bad query anywhere must leave out
// untouched.
func TestDistAvoidingManyValidatesUpFront(t *testing.T) {
	g := ringWithChords(16)
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	o := st.Oracle()
	bad := []ftbfs.FailureQuery{
		{V: 1, FailedU: 0, FailedV: 1},
		{V: 2, FailedU: 1, FailedV: 2},
		{V: 3, FailedU: 0, FailedV: 7}, // not an edge
		{V: 4, FailedU: 2, FailedV: 3},
	}
	const sentinel = -12345
	out := make([]int, len(bad))
	for i := range out {
		out[i] = sentinel
	}
	if _, err := o.DistAvoidingMany(bad, out); err == nil {
		t.Fatal("batch with a non-edge failure accepted")
	}
	for i, d := range out {
		if d != sentinel {
			t.Fatalf("out[%d] = %d was published despite the batch error", i, d)
		}
	}
}

// TestQueryPlanConcurrentMatchesReference hammers the pooled plan path from
// many goroutines (run under -race in CI) against reference answers computed
// serially, covering the lazily built plan, the shared intact vector, and
// per-oracle repair scratches.
func TestQueryPlanConcurrentMatchesReference(t *testing.T) {
	g, edges := buildRandom(90, 120, 17)
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	type q struct{ v, fu, fv, want int }
	ref := st.Oracle()
	var qs []q
	for i, e := range edges {
		if st.IsReinforced(e[0], e[1]) {
			continue
		}
		v := (i * 37) % g.N()
		want, err := ref.DistAvoidingRef(v, e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q{v, e[0], e[1], want})
	}
	pool := st.OraclePool()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs)*4; i += 8 {
				qq := qs[i%len(qs)]
				err := pool.Do(func(o *ftbfs.Oracle) error {
					got, err := o.DistAvoiding(qq.v, qq.fu, qq.fv)
					if err != nil {
						return err
					}
					if got != qq.want {
						t.Errorf("concurrent DistAvoiding(%d,%d,%d) = %d, want %d", qq.v, qq.fu, qq.fv, got, qq.want)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestQueryPlanClassifiers sanity-checks the exported plan diagnostics: a
// BFS-tree edge must classify as a tree edge with a positive affected
// subtree, everything else as O(1).
func TestQueryPlanClassifiers(t *testing.T) {
	g, edges := buildRandom(50, 60, 21)
	st, err := ftbfs.Build(g, 0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	plan := st.Plan()
	if plan != st.Plan() {
		t.Fatal("Plan is not cached")
	}
	o := st.Oracle()
	trees, flats := 0, 0
	for _, e := range edges {
		if st.IsReinforced(e[0], e[1]) {
			continue
		}
		isTree := plan.IsTreeEdge(e[0], e[1])
		size := plan.SubtreeSize(e[0], e[1])
		if isTree != (size > 0) {
			t.Fatalf("edge %v: IsTreeEdge=%v but SubtreeSize=%d", e, isTree, size)
		}
		if isTree {
			trees++
			continue
		}
		flats++
		// Non-tree failures must not change any distance at all.
		for v := 0; v < g.N(); v += 7 {
			got, err := o.DistAvoiding(v, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			if got != st.Dist(v) {
				t.Fatalf("non-tree failure %v changed dist(%d): %d != %d", e, v, got, st.Dist(v))
			}
		}
	}
	if trees == 0 || flats == 0 {
		t.Fatalf("degenerate classification: %d tree edges, %d non-tree", trees, flats)
	}
}

// TestPlanClassifiersMatchParentWalk checks the plan's classifiers against
// an independent tree: H's canonical BFS tree recomputed by bfs.FromCSR
// over G's subgraph CSR of the structure's edges, read only through parent
// walks and parent edge ids. On random graphs, several ε values and both
// failure models, for every ordered pair of endpoints (non-edges and
// out-of-range ones included): IsTreeEdge holds iff the pair's edge id is
// one endpoint's parent edge, SubtreeSize counts the vertices whose walk
// crosses that edge, OnTreePath holds iff w is strictly inside v's walk to
// the source, and VertexSubtreeSize counts the vertices whose walk passes
// w. A vertex plan serves no edge failures, so its edge classifiers
// answer false and 0.
func TestPlanClassifiersMatchParentWalk(t *testing.T) {
	for _, tc := range []struct {
		n, extra int
		seed     int64
	}{{40, 0, 1}, {50, 60, 2}, {60, 120, 3}} {
		g, edges := buildRandom(tc.n, tc.extra, tc.seed)
		ig := graph.New(tc.n) // the same edges under the same ids
		for _, e := range edges {
			if _, err := ig.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		ig.Freeze()
		type built struct {
			name string
			plan *ftbfs.QueryPlan
			h    [][2]int
		}
		var plans []built
		for _, eps := range []float64{0, 0.25, 0.5, 1} {
			st, err := ftbfs.Build(g, 0, eps)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, built{"edge", st.Plan(), st.Edges()})
		}
		vst, err := ftbfs.BuildVertex(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, built{"vertex", vst.Plan(), vst.Edges()})
		for _, b := range plans {
			h := graph.NewEdgeSet(ig.M())
			for _, e := range b.h {
				h.Add(ig.EdgeIDOf(e[0], e[1]))
			}
			bt := bfs.FromCSR(ig.SubgraphCSR(h), 0)
			// crosses reports whether x's walk to the source passes c,
			// x == c included.
			crosses := func(x, c int32) bool {
				for ; x >= 0; x = bt.Parent[x] {
					if x == c {
						return true
					}
				}
				return false
			}
			below := func(c int32) (k int) {
				for x := int32(0); x < int32(tc.n); x++ {
					if crosses(x, c) {
						k++
					}
				}
				return k
			}
			for u := -1; u <= tc.n; u++ {
				for v := -1; v <= tc.n; v++ {
					in := u >= 0 && v >= 0 && u < tc.n && v < tc.n
					isTree, size := false, 0
					if in && b.name == "edge" {
						if id := ig.EdgeIDOf(u, v); id != graph.NoEdge {
							switch id {
							case bt.ParentEdge[v]:
								isTree, size = true, below(int32(v))
							case bt.ParentEdge[u]:
								isTree, size = true, below(int32(u))
							}
						}
					}
					if got := b.plan.IsTreeEdge(u, v); got != isTree {
						t.Fatalf("seed %d %s: IsTreeEdge(%d,%d) = %v, parent walk %v", tc.seed, b.name, u, v, got, isTree)
					}
					if got := b.plan.SubtreeSize(u, v); got != size {
						t.Fatalf("seed %d %s: SubtreeSize(%d,%d) = %d, parent walk %d", tc.seed, b.name, u, v, got, size)
					}
					w := u // OnTreePath(w, v): w strictly between the source and v
					onPath := in && w != v && int32(w) != bt.Source && crosses(int32(v), int32(w))
					if got := b.plan.OnTreePath(w, v); got != onPath {
						t.Fatalf("seed %d %s: OnTreePath(%d,%d) = %v, parent walk %v", tc.seed, b.name, w, v, got, onPath)
					}
				}
				want := 0
				if u >= 0 && u < tc.n && bt.Dist[u] != bfs.Unreachable {
					want = below(int32(u)) - 1
				}
				if got := b.plan.VertexSubtreeSize(u); got != want {
					t.Fatalf("seed %d %s: VertexSubtreeSize(%d) = %d, parent walk %d", tc.seed, b.name, u, got, want)
				}
			}
		}
	}
}
