package ftbfs_test

import (
	"bytes"
	"testing"

	"ftbfs"
	"ftbfs/internal/gen"
)

// slabFixture builds an edge structure over a random connected graph,
// returning the public graph, the structure, and the edge list of G.
func slabFixture(t testing.TB, n, m int, seed int64) (*ftbfs.Graph, *ftbfs.Structure, [][2]int) {
	t.Helper()
	ig := gen.RandomConnected(n, m, seed)
	g := ftbfs.NewGraph(ig.N())
	edges := make([][2]int, 0, ig.M())
	for _, e := range ig.EdgesView() {
		g.MustAddEdge(int(e.U), int(e.V))
		edges = append(edges, [2]int{int(e.U), int(e.V)})
	}
	s, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, s, edges
}

// TestSlabTextInterop round-trips an edge structure through the slab
// record, the one structure record format (the text record it was once
// checked against is retired): slab → load → slab is byte-identical, and the
// slab-loaded structure answers every failable edge exactly like the
// builder's.
func TestSlabTextInterop(t *testing.T) {
	g, s, edges := slabFixture(t, 120, 360, 7)

	var slab1 bytes.Buffer
	if err := s.SaveSlab(&slab1); err != nil {
		t.Fatalf("SaveSlab: %v", err)
	}
	fromSlab, err := ftbfs.LoadStructure(g, bytes.NewReader(slab1.Bytes()))
	if err != nil {
		t.Fatalf("LoadStructure(slab): %v", err)
	}
	var slab2 bytes.Buffer
	if err := fromSlab.SaveSlab(&slab2); err != nil {
		t.Fatalf("re-SaveSlab: %v", err)
	}
	if !bytes.Equal(slab1.Bytes(), slab2.Bytes()) {
		t.Fatalf("slab re-encode differs")
	}

	// The slab-loaded structure serves identical answers, for every failable
	// edge of G and a spread of targets.
	want, got := s.Oracle(), fromSlab.Oracle()
	for _, e := range edges {
		if s.IsReinforced(e[0], e[1]) {
			continue
		}
		for v := 0; v < g.N(); v += 7 {
			dw, errW := want.DistAvoiding(v, e[0], e[1])
			dg, errG := got.DistAvoiding(v, e[0], e[1])
			if (errW == nil) != (errG == nil) || dw != dg {
				t.Fatalf("DistAvoiding(%d, {%d,%d}) = %d,%v via slab, want %d,%v", v, e[0], e[1], dg, errG, dw, errW)
			}
		}
	}
}

// TestSlabTextInteropVertex is TestSlabTextInterop for the vertex model.
func TestSlabTextInteropVertex(t *testing.T) {
	ig := gen.RandomConnected(100, 280, 11)
	g := ftbfs.NewGraph(ig.N())
	for _, e := range ig.EdgesView() {
		g.MustAddEdge(int(e.U), int(e.V))
	}
	s, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		t.Fatalf("BuildVertex: %v", err)
	}

	var slab1 bytes.Buffer
	if err := s.SaveSlab(&slab1); err != nil {
		t.Fatalf("SaveSlab: %v", err)
	}
	fromSlab, err := ftbfs.LoadVertexStructure(g, bytes.NewReader(slab1.Bytes()))
	if err != nil {
		t.Fatalf("LoadVertexStructure(slab): %v", err)
	}
	var slab2 bytes.Buffer
	if err := fromSlab.SaveSlab(&slab2); err != nil {
		t.Fatalf("re-SaveSlab: %v", err)
	}
	if !bytes.Equal(slab1.Bytes(), slab2.Bytes()) {
		t.Fatalf("vertex slab re-encode differs")
	}

	// Every failable vertex, spread of targets.
	want, got := s.Oracle(), fromSlab.Oracle()
	for w := 1; w < g.N(); w++ {
		for v := 0; v < g.N(); v += 9 {
			dw, errW := want.DistAvoidingVertex(v, w)
			dg, errG := got.DistAvoidingVertex(v, w)
			if (errW == nil) != (errG == nil) || dw != dg {
				t.Fatalf("DistAvoidingVertex(%d, %d) = %d,%v via slab, want %d,%v", v, w, dg, errG, dw, errW)
			}
		}
	}
}

// TestSlabRejectsCorruption flips bytes all over a valid record and expects
// every corruption to be caught by the length, bounds or checksum layers —
// never a panic, never a silently-wrong load.
func TestSlabRejectsCorruption(t *testing.T) {
	g, s, _ := slabFixture(t, 80, 200, 3)
	var buf bytes.Buffer
	if err := s.SaveSlab(&buf); err != nil {
		t.Fatalf("SaveSlab: %v", err)
	}
	valid := buf.Bytes()

	for _, cut := range []int{0, 3, 4, 63, 64, len(valid) / 2, len(valid) - 1} {
		if _, err := ftbfs.LoadStructure(g, bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes loaded", cut)
		}
	}
	for off := 0; off < len(valid); off += 13 {
		mut := bytes.Clone(valid)
		mut[off] ^= 0x5a
		if _, err := ftbfs.LoadStructure(g, bytes.NewReader(mut)); err == nil {
			t.Fatalf("corruption at offset %d loaded", off)
		}
	}
	// Model confusion: an edge slab must not load as a vertex structure.
	if _, err := ftbfs.LoadVertexStructure(g, bytes.NewReader(valid)); err == nil {
		t.Fatalf("edge slab loaded as vertex structure")
	}
	// A record for a different base graph must be rejected.
	other := ftbfs.NewGraph(g.N() + 1)
	if _, err := ftbfs.LoadStructure(other, bytes.NewReader(valid)); err == nil {
		t.Fatalf("slab for a different graph loaded")
	}
}
