package graph

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

func randomFrozen(t *testing.T, n, m int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 1; i < n; i++ {
		mustEdge(t, g, i, rng.Intn(i))
	}
	for len(g.edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			mustEdge(t, g, u, v)
		}
	}
	return g.Freeze()
}

// TestCSRViewMatchesAdjacency checks the frozen graph's CSR against the
// edge list it was packed from: row u holds exactly the edges at u, sorted
// by neighbour, and Neighbors and Degree read that row.
func TestCSRViewMatchesAdjacency(t *testing.T) {
	g := randomFrozen(t, 50, 120, 1)
	want := make([][]Arc, g.N())
	for id, e := range g.EdgesView() {
		want[e.U] = append(want[e.U], Arc{To: e.V, ID: EdgeID(id)})
		want[e.V] = append(want[e.V], Arc{To: e.U, ID: EdgeID(id)})
	}
	c := g.CSR()
	if c.N() != g.N() {
		t.Fatalf("N = %d, want %d", c.N(), g.N())
	}
	if c.NumArcs() != 2*g.M() {
		t.Fatalf("NumArcs = %d, want %d", c.NumArcs(), 2*g.M())
	}
	for u := 0; u < g.N(); u++ {
		slices.SortFunc(want[u], func(a, b Arc) int { return cmp.Compare(a.To, b.To) })
		got := c.ArcsOf(int32(u))
		if !slices.Equal(got, want[u]) || c.Degree(int32(u)) != len(want[u]) || g.Degree(u) != len(want[u]) {
			t.Fatalf("vertex %d: row %v, want %v", u, got, want[u])
		}
		if nb := g.Neighbors(u); len(nb) > 0 && &nb[0] != &got[0] {
			t.Fatalf("vertex %d: Neighbors is not the CSR row", u)
		}
	}
	if g.CSR() != c {
		t.Fatal("CSR is not the graph's own adjacency")
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestSubgraphCSRKeepsOnlyAllowedArcs(t *testing.T) {
	g := randomFrozen(t, 60, 150, 2)
	allowed := NewEdgeSet(g.M())
	for id := 0; id < g.M(); id += 2 {
		allowed.Add(EdgeID(id))
	}
	c := g.SubgraphCSR(allowed)
	if c.NumArcs() != 2*allowed.Len() {
		t.Fatalf("NumArcs = %d, want %d", c.NumArcs(), 2*allowed.Len())
	}
	for u := 0; u < g.N(); u++ {
		var want []Arc
		for _, a := range g.Neighbors(u) {
			if allowed.Contains(a.ID) {
				want = append(want, a)
			}
		}
		got := c.ArcsOf(int32(u))
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %d arcs, want %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d arc %d: %v, want %v", u, i, got[i], want[i])
			}
			// Frozen-order inheritance: rows stay sorted by neighbour.
			if i > 0 && got[i-1].To > got[i].To {
				t.Fatalf("vertex %d: row not sorted at %d", u, i)
			}
		}
	}
}

func TestCSRPanicsBeforeFreeze(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1)
	for name, f := range map[string]func(){
		"CSR":         func() { g.CSR() },
		"Neighbors":   func() { g.Neighbors(0) },
		"Degree":      func() { g.Degree(0) },
		"SubgraphCSR": func() { g.SubgraphCSR(NewEdgeSet(g.M())) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s before Freeze did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEdgesViewIsZeroCopy(t *testing.T) {
	g := randomFrozen(t, 20, 40, 3)
	v1, v2 := g.EdgesView(), g.EdgesView()
	if len(v1) != g.M() || &v1[0] != &v2[0] {
		t.Fatal("EdgesView must alias the graph's edge storage")
	}
	cp := g.Edges()
	if &cp[0] == &v1[0] {
		t.Fatal("Edges must return a copy")
	}
	for i := range cp {
		if cp[i] != v1[i] {
			t.Fatalf("edge %d: copy %v != view %v", i, cp[i], v1[i])
		}
	}
}
