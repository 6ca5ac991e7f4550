package bfs

import (
	"math/rand"
	"testing"

	"ftbfs/internal/graph"
)

func randomConnected(t *testing.T, n, extra int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 1; i < n; i++ {
		if _, err := g.AddEdge(i, rng.Intn(i)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g.Freeze()
}

// TestFromCSRMatchesFrom checks the one canonical search on subgraph CSRs
// against independent references: distances against the restricted search
// inside H (Scratch.DistancesAvoiding with AllowedEdges), and parents
// against the min-index rule applied by brute force over H's edge list.
// Some of the subgraphs leave vertices unreachable.
func TestFromCSRMatchesFrom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomConnected(t, 80, 120, seed)
		rng := rand.New(rand.NewSource(seed))
		h := graph.NewEdgeSet(g.M())
		for id := 0; id < g.M(); id++ {
			if rng.Intn(10) < 4+int(seed)%6 {
				h.Add(graph.EdgeID(id))
			}
		}
		s := rng.Intn(g.N())
		got := FromCSR(g.SubgraphCSR(h), s)
		want := NewScratch(g.N()).DistancesAvoiding(g, s,
			Restriction{BannedEdge: graph.NoEdge, AllowedEdges: h}, make([]int32, g.N()))
		for v := 0; v < g.N(); v++ {
			if got.Dist[v] != want[v] {
				t.Fatalf("seed %d: Dist[%d] = %d, want %d", seed, v, got.Dist[v], want[v])
			}
			wantP, wantE := int32(-1), graph.NoEdge
			h.ForEach(func(id graph.EdgeID) {
				e := g.EdgeByID(id)
				if e.U != int32(v) && e.V != int32(v) {
					return
				}
				u := e.Other(int32(v))
				if want[v] > 0 && want[u] == want[v]-1 && (wantP < 0 || u < wantP) {
					wantP, wantE = u, id
				}
			})
			if got.Parent[v] != wantP || got.ParentEdge[v] != wantE {
				t.Fatalf("seed %d: parent of %d: (%d,%d), want (%d,%d)", seed, v,
					got.Parent[v], got.ParentEdge[v], wantP, wantE)
			}
		}
		inOrder := make([]bool, g.N())
		for i, v := range got.Order {
			if inOrder[v] || got.Dist[v] == Unreachable || (i > 0 && got.Dist[got.Order[i-1]] > got.Dist[v]) {
				t.Fatalf("seed %d: Order is not the reachable vertices by distance at %d", seed, i)
			}
			inOrder[v] = true
		}
		for v, d := range want {
			if inOrder[v] != (d != Unreachable) {
				t.Fatalf("seed %d: Order and reachability disagree at %d", seed, v)
			}
		}
	}
}

// subtreeOf collects the vertices whose canonical tree path passes through
// c — the brute-force definition the repair search's preorder interval must
// agree with.
func subtreeOf(bt *Tree, c int32) []int32 {
	var sub []int32
	for v := int32(0); int(v) < len(bt.Dist); v++ {
		if bt.Dist[v] == Unreachable {
			continue
		}
		for x := v; x >= 0; x = bt.Parent[x] {
			if x == c {
				sub = append(sub, v)
				break
			}
		}
	}
	return sub
}

// TestRepairMatchesFullSearch fails every tree edge of random graphs and
// checks the subtree-local repair against a from-scratch restricted BFS.
func TestRepairMatchesFullSearch(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		extra := int(seed) * 20 // seed 0: a tree, where every failure disconnects
		g := randomConnected(t, 60, extra, seed)
		csr := g.CSR()
		bt := From(g, 0)
		r := NewRepair(g.N())
		sc := NewScratch(g.N())
		want := make([]int32, g.N())
		for v := int32(1); int(v) < g.N(); v++ {
			id := bt.ParentEdge[v]
			if id == graph.NoEdge {
				continue
			}
			sub := subtreeOf(bt, v)
			r.Run(csr, bt.Dist, sub, id, -1)
			sc.DistancesAvoiding(g, 0, Restriction{BannedEdge: id}, want)
			for _, w := range sub {
				if got := r.Dist(w); got != want[w] {
					t.Fatalf("seed %d, failed edge %d (child %d): dist[%d] = %d, want %d",
						seed, id, v, w, got, want[w])
				}
			}
		}
	}
}

// TestRepairScratchReuse runs two repairs back to back and checks the second
// is not polluted by the first (epoch stamping, bucket reset).
func TestRepairScratchReuse(t *testing.T) {
	g := randomConnected(t, 50, 40, 7)
	csr := g.CSR()
	bt := From(g, 0)
	r := NewRepair(g.N())
	sc := NewScratch(g.N())
	want := make([]int32, g.N())
	var children []int32
	for v := int32(1); int(v) < g.N(); v++ {
		if bt.ParentEdge[v] != graph.NoEdge {
			children = append(children, v)
		}
	}
	for round := 0; round < 3; round++ {
		for _, c := range children {
			id := bt.ParentEdge[c]
			sub := subtreeOf(bt, c)
			r.Run(csr, bt.Dist, sub, id, -1)
			sc.DistancesAvoiding(g, 0, Restriction{BannedEdge: id}, want)
			for _, w := range sub {
				if got := r.Dist(w); got != want[w] {
					t.Fatalf("round %d, child %d: dist[%d] = %d, want %d", round, c, w, got, want[w])
				}
			}
		}
	}
}
