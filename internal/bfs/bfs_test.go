package bfs

import (
	"math/rand"
	"testing"

	"ftbfs/internal/graph"
)

// pathTo returns the canonical shortest path π(s,v) as a vertex sequence
// from the source to v, or nil if v is unreachable.
func pathTo(t *Tree, v int) []int32 {
	if t.Dist[v] == Unreachable {
		return nil
	}
	path := make([]int32, t.Dist[v]+1)
	x := int32(v)
	for i := len(path) - 1; i >= 0; i-- {
		path[i] = x
		x = t.Parent[x]
	}
	return path
}

func grid3x3() *graph.Graph {
	// 0 1 2
	// 3 4 5
	// 6 7 8
	b := graph.NewBuilder(9)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			v := r*3 + c
			if c+1 < 3 {
				b.Add(v, v+1)
			}
			if r+1 < 3 {
				b.Add(v, v+3)
			}
		}
	}
	return b.Graph()
}

func TestFromDistances(t *testing.T) {
	g := grid3x3()
	tr := From(g, 0)
	want := []int32{0, 1, 2, 1, 2, 3, 2, 3, 4}
	for v, d := range want {
		if tr.Dist[v] != d {
			t.Fatalf("dist[%d]=%d want %d", v, tr.Dist[v], d)
		}
	}
	if tr.Parent[0] != -1 || tr.ParentEdge[0] != graph.NoEdge {
		t.Fatal("source must have no parent")
	}
}

func TestCanonicalMinIndexParent(t *testing.T) {
	g := grid3x3()
	tr := From(g, 0)
	// vertex 4 has parents 1 and 3 at distance 1; canonical is min = 1.
	if tr.Parent[4] != 1 {
		t.Fatalf("parent[4]=%d want 1", tr.Parent[4])
	}
	// vertex 8 has parents 5 and 7 at distance 3; canonical is 5.
	if tr.Parent[8] != 5 {
		t.Fatalf("parent[8]=%d want 5", tr.Parent[8])
	}
}

func TestPathToPrefixClosure(t *testing.T) {
	g := grid3x3()
	tr := From(g, 0)
	for v := 0; v < g.N(); v++ {
		p := pathTo(tr, v)
		if int32(len(p)-1) != tr.Dist[v] {
			t.Fatalf("path length %d != dist %d", len(p)-1, tr.Dist[v])
		}
		if p[0] != 0 || p[len(p)-1] != int32(v) {
			t.Fatalf("bad endpoints %v", p)
		}
		// prefix closure: the canonical path to p[i] is p[:i+1]
		for i, u := range p {
			q := pathTo(tr, int(u))
			if len(q) != i+1 {
				t.Fatalf("prefix closure violated at %d on path to %d", u, v)
			}
			for j := range q {
				if q[j] != p[j] {
					t.Fatalf("prefix mismatch %v vs %v", q, p[:i+1])
				}
			}
		}
	}
}

func TestUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	b.Add(0, 1)
	g := b.Graph()
	tr := From(g, 0)
	if tr.Dist[2] != Unreachable || pathTo(tr, 2) != nil {
		t.Fatal("vertex 2 should be unreachable")
	}
	if len(tr.Order) != 2 {
		t.Fatalf("Order=%v", tr.Order)
	}
}

func TestTreeEdgeSetAndChildEndpoint(t *testing.T) {
	g := grid3x3()
	tr := From(g, 0)
	es := tr.EdgeSet(g.M())
	if es.Len() != 8 {
		t.Fatalf("tree must have n-1=8 edges, got %d", es.Len())
	}
	for child, id := range tr.ParentEdge {
		if id == graph.NoEdge {
			continue
		}
		e := g.EdgeByID(id)
		other := e.Other(int32(child))
		if !es.Contains(id) {
			t.Fatalf("parent edge %v of %d missing from the edge set", e, child)
		}
		if tr.Dist[child] != tr.Dist[other]+1 {
			t.Fatalf("edge %v: child %d not one deeper", e, child)
		}
		if tr.Parent[child] != other {
			t.Fatalf("edge %v not a parent edge of %d", e, child)
		}
	}
}

func TestDistancesAvoidingEdge(t *testing.T) {
	// cycle of 6: removing edge {0,1} forces the long way round.
	b := graph.NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.Add(i, (i+1)%6)
	}
	g := b.Graph()
	sc := NewScratch(g.N())
	out := make([]int32, g.N())
	sc.DistancesAvoiding(g, 0, Restriction{BannedEdge: g.EdgeIDOf(0, 1)}, out)
	if out[1] != 5 {
		t.Fatalf("dist to 1 avoiding {0,1} = %d want 5", out[1])
	}
	if out[3] != 3 {
		t.Fatalf("dist to 3 = %d want 3", out[3])
	}
}

func TestDistancesAvoidingVertices(t *testing.T) {
	g := grid3x3()
	banned := graph.NewVertexSet(g.N())
	banned.Add(1)
	banned.Add(3)
	sc := NewScratch(g.N())
	out := make([]int32, g.N())
	sc.DistancesAvoiding(g, 0, Restriction{BannedEdge: graph.NoEdge, BannedVertices: banned}, out)
	if out[4] != Unreachable {
		t.Fatalf("4 should be cut off, got %d", out[4])
	}
	if out[1] != Unreachable || out[3] != Unreachable {
		t.Fatal("banned vertices must be unreachable")
	}
}

func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := graph.NewBuilder(40)
	for i := 1; i < 40; i++ {
		b.Add(i, rng.Intn(i)) // random connected tree
	}
	for k := 0; k < 60; k++ {
		b.Add(rng.Intn(40), rng.Intn(40))
	}
	g := b.Graph()
	sc := NewScratch(g.N())
	out := make([]int32, g.N())
	for trial := 0; trial < 20; trial++ {
		e := graph.EdgeID(rng.Intn(g.M()))
		sc.DistancesAvoiding(g, 0, Restriction{BannedEdge: e}, out)
		// brute force: rebuild graph without e
		nb := graph.NewBuilder(g.N())
		for id, ed := range g.Edges() {
			if graph.EdgeID(id) != e {
				nb.Add(int(ed.U), int(ed.V))
			}
		}
		want := From(nb.Graph(), 0).Dist
		for v := range want {
			if out[v] != want[v] {
				t.Fatalf("trial %d: dist[%d]=%d want %d (edge %v)", trial, v, out[v], want[v], g.EdgeByID(e))
			}
		}
	}
}
