package graph

import (
	"math/rand"
	"testing"
)

func mustEdge(t *testing.T, g *Graph, u, v int) EdgeID {
	t.Helper()
	id, err := g.AddEdge(u, v)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
	return id
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	id0 := mustEdge(t, g, 0, 1)
	id1 := mustEdge(t, g, 1, 2)
	if id0 != 0 || id1 != 1 {
		t.Fatalf("ids not dense: %d %d", id0, id1)
	}
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("HasEdge should be orientation-independent")
	}
	if g.EdgeIDOf(2, 1) != id1 {
		t.Fatalf("EdgeIDOf(2,1)=%d want %d", g.EdgeIDOf(2, 1), id1)
	}
	if g.EdgeIDOf(0, 3) != NoEdge {
		t.Fatal("EdgeIDOf of absent edge should be NoEdge")
	}
	if e := g.EdgeByID(id1); e.Canonical() != (Edge{1, 2}) {
		t.Fatalf("EdgeByID(%d)=%v", id1, e)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := g.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("negative accepted")
	}
	mustEdge(t, g, 0, 1)
	if _, err := g.AddEdge(1, 0); err == nil {
		t.Fatal("duplicate (reversed) accepted")
	}
}

func TestFreezeSortsAdjacency(t *testing.T) {
	g := New(5)
	mustEdge(t, g, 0, 4)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 0, 3)
	mustEdge(t, g, 0, 1)
	g.Freeze()
	if !g.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
	prev := int32(-1)
	for _, a := range g.Neighbors(0) {
		if a.To <= prev {
			t.Fatalf("adjacency not sorted: %v", g.Neighbors(0))
		}
		prev = a.To
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{3, 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Fatal("Other broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint should panic")
		}
	}()
	e.Other(5)
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1)
	c := g.Clone()
	c.MustAddEdge(1, 2)
	if g.M() != 1 || c.M() != 2 {
		t.Fatalf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
	if err := Validate(c.Freeze()); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1)
	if err := Validate(g); err == nil {
		t.Fatal("unfrozen graph accepted: it has no adjacency to check")
	}
	g.Freeze()
	if err := Validate(g); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	g.edges[0] = Edge{0, 2} // corrupt edge list behind adjacency's back
	if err := Validate(g); err == nil {
		t.Fatal("corruption not detected")
	}

	h := New(3)
	mustEdge(t, h, 0, 2)
	mustEdge(t, h, 0, 1)
	row := h.Freeze().CSR().ArcsOf(0)
	row[0], row[1] = row[1], row[0] // a row out of neighbour order
	if err := Validate(h); err == nil {
		t.Fatal("unsorted row not detected")
	}
	row[0] = row[1] // one edge twice in a row, the other missing
	if err := Validate(h); err == nil {
		t.Fatal("repeated arc not detected")
	}

	k := New(3)
	mustEdge(t, k, 0, 1)
	mustEdge(t, k, 0, 2)
	c := k.Freeze().CSR()
	c.Arcs = c.Arcs[:len(c.Arcs)-1] // vertex 2 loses its only arc
	c.RowStart[k.N()]--
	if err := Validate(k); err == nil {
		t.Fatal("missing arc not detected")
	}
}

func TestRandomGraphValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New(50)
	for added := 0; added < 200; {
		u, v := rng.Intn(50), rng.Intn(50)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		mustEdge(t, g, u, v)
		added++
	}
	if err := Validate(g.Freeze()); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderHelpers(t *testing.T) {
	b := NewBuilder(10)
	b.AddStar(0, 1, 2, 3)
	b.AddBiclique([]int{4, 5}, []int{6, 7})
	b.AddClique(8, 9)
	if b.M() != 3+4+1 {
		t.Fatalf("M=%d", b.M())
	}
	if b.Add(0, 1) {
		t.Fatal("duplicate add reported true")
	}
	if b.Add(0, 0) {
		t.Fatal("self loop add reported true")
	}
	g := b.Graph()
	if !g.Frozen() {
		t.Fatal("builder result not frozen")
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgeList(t *testing.T) {
	g, err := FromEdgeList(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || !g.Frozen() {
		t.Fatal("FromEdgeList wrong")
	}
	if _, err := FromEdgeList(2, [][2]int{{0, 0}}); err == nil {
		t.Fatal("self loop accepted")
	}
}
