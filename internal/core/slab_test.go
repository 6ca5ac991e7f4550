package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"ftbfs/internal/bfs"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
)

// slabTestGraphs returns a random graph at generation 0 and its next
// generation, with one edge deleted.
func slabTestGraphs(t testing.TB) (g0, g1 *graph.Graph) {
	t.Helper()
	g0 = gen.RandomConnected(40, 100, 9)
	e := g0.EdgeByID(graph.EdgeID(g0.M() - 1))
	g1, _, err := g0.Apply([]graph.Mutation{{Op: graph.MutDelete, U: int(e.U), V: int(e.V)}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return g0, g1
}

// slabTestRecord builds a structure over g and captures it as a SlabRecord
// of the given model the way the root package does: edge sets from the
// build, serving arrays from H's own CSR and canonical BFS tree. The format
// does not care how H was built, so a vertex record reuses the build's H
// and leaves the reinforced set empty.
func slabTestRecord(t testing.TB, g *graph.Graph, model Model) *SlabRecord {
	t.Helper()
	st, err := Build(g, 0, 0.3, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	h := g.SubgraphCSR(st.Edges)
	bt := bfs.FromCSR(h, st.S)
	rec := &SlabRecord{
		Model:      model,
		S:          st.S,
		Gen:        g.Generation(),
		Edges:      st.Edges,
		Intact:     bt.Dist,
		RowStart:   h.RowStart,
		Arcs:       h.Arcs,
		Parent:     bt.Parent,
		ParentEdge: bt.ParentEdge,
		Order:      bt.Order,
	}
	if model == ModelVertex {
		rec.Pairs = 7
		return rec
	}
	if rec.Alg, err = ParseAlgorithm(st.Stats.Algorithm); err != nil {
		t.Fatalf("ParseAlgorithm: %v", err)
	}
	rec.Eps, rec.Reinforced = st.Eps, st.Reinforced
	return rec
}

// reseal recomputes a record's checksum after a test edits its bytes.
func reseal(data []byte) []byte {
	binary.LittleEndian.PutUint64(data[slabOffChecksum:], slabChecksum(data))
	return data
}

// TestSlabRoundTrip encodes an edge record, a vertex record and a record of
// a later generation, decodes each back and compares the metadata, the edge
// sets (a vertex record decodes no reinforced set) and the re-encoded
// bytes.
func TestSlabRoundTrip(t *testing.T) {
	g0, g1 := slabTestGraphs(t)
	for _, tc := range []struct {
		g     *graph.Graph
		model Model
	}{{g0, ModelEdge}, {g0, ModelVertex}, {g1, ModelEdge}} {
		rec := slabTestRecord(t, tc.g, tc.model)
		data, err := EncodeSlabBytes(tc.g, rec)
		if err != nil {
			t.Fatalf("EncodeSlabBytes: %v", err)
		}
		if !IsSlabRecord(data) {
			t.Fatalf("encoded record not sniffed as slab")
		}
		back, err := DecodeSlab(data, tc.g)
		if err != nil {
			t.Fatalf("model %d, gen %d: DecodeSlab: %v", tc.model, tc.g.Generation(), err)
		}
		if back.S != rec.S || back.Eps != rec.Eps || back.Alg != rec.Alg || back.Model != rec.Model ||
			back.Pairs != rec.Pairs || back.Gen != rec.Gen {
			t.Fatalf("metadata changed in round trip")
		}
		// A vertex record's reinforced section decodes to no set at all.
		if back.Edges.Len() != rec.Edges.Len() || (rec.Reinforced == nil) != (back.Reinforced == nil) ||
			rec.Reinforced != nil && back.Reinforced.Len() != rec.Reinforced.Len() {
			t.Fatalf("edge sets changed in round trip")
		}
		again, err := EncodeSlabBytes(tc.g, back)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("re-encoded bytes differ")
		}
	}
	// The retired text records must never sniff as slabs.
	if IsSlabRecord([]byte("ftbfs-structure 1\n")) || IsSlabRecord([]byte("ftbfs-structure 2 vertex\n")) {
		t.Fatalf("text header sniffed as binary")
	}
}

// TestSlabHeaderChecks: CheckSlab and DecodeSlab read the header through
// one reader, so they refuse every record that fails a header check with
// the same error. Only DecodeSlab, which has the payload and the graph,
// refuses a vertex record with a reinforced edge, a reinforced edge outside
// E(H) and a record of another generation.
func TestSlabHeaderChecks(t *testing.T) {
	g0, g1 := slabTestGraphs(t)
	valid, err := EncodeSlabBytes(g0, slabTestRecord(t, g0, ModelEdge))
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	n, m := uint32(g0.N()), uint32(g0.M())
	edited := func(edit func(b []byte)) []byte {
		b := bytes.Clone(valid)
		edit(b)
		return reseal(b)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"FTB3 magic", edited(func(b []byte) { copy(b, "FTB3") }), "not a binary structure record"},
		{"FTB4 magic", edited(func(b []byte) { copy(b, "FTB4") }), "not a binary structure record"},
		{"unknown model", edited(func(b []byte) { le.PutUint32(b[slabOffModel:], 2) }), "unknown model 2"},
		{"reachable > n", edited(func(b []byte) { le.PutUint32(b[slabOffReachable:], n+1) }), "header is inconsistent"},
		{"arcs > 2m", edited(func(b []byte) { le.PutUint32(b[slabOffArcs:], 2*m+1) }), "header is inconsistent"},
		{"payload length", edited(func(b []byte) {
			le.PutUint64(b[slabOffPayloadLen:], uint64(len(valid)-slabHeaderSize+8))
		}), "want"},
		{"truncated", valid[:len(valid)-8], "truncated"},
		{"flipped checksum", func() []byte {
			b := bytes.Clone(valid)
			b[slabOffChecksum] ^= 1
			return b
		}(), "checksum mismatch"},
	} {
		cerr := CheckSlab(tc.data)
		_, derr := DecodeSlab(tc.data, g0)
		if cerr == nil || derr == nil || cerr.Error() != derr.Error() || !strings.Contains(cerr.Error(), tc.want) {
			t.Errorf("%s: CheckSlab = %v, DecodeSlab = %v; want both %q", tc.name, cerr, derr, tc.want)
		}
	}

	vrec := slabTestRecord(t, g0, ModelVertex)
	vrec.Reinforced = graph.NewEdgeSet(g0.M())
	vrec.Reinforced.Add(vrec.ParentEdge[vrec.Order[1]])
	vertex, err := EncodeSlabBytes(g0, vrec)
	if err != nil {
		t.Fatal(err)
	}
	erec := slabTestRecord(t, g0, ModelEdge)
	off := graph.EdgeID(0) // the first edge outside H (H ≠ G on this graph)
	for erec.Edges.Contains(off) {
		off++
	}
	erec.Reinforced = erec.Reinforced.Clone()
	erec.Reinforced.Add(off)
	outside, err := EncodeSlabBytes(g0, erec)
	if err != nil {
		t.Fatal(err)
	}
	later, err := EncodeSlabBytes(g1, slabTestRecord(t, g1, ModelEdge))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		g    *graph.Graph
		want string
	}{
		{"vertex record with a reinforced edge", vertex, g0, "vertex record with 1 reinforced edges"},
		{"reinforced edge outside E(H)", outside, g0, "reinforced edges outside E(H)"},
		{"generation 1 record, generation 0 graph", later, g0, "generation 1, base graph is generation 0"},
		{"generation 0 record, generation 1 graph", valid, g1, "generation 0, base graph is generation 1"},
	} {
		if err := CheckSlab(tc.data); err != nil {
			t.Errorf("%s: CheckSlab = %v, want nil", tc.name, err)
		}
		if _, err := DecodeSlab(tc.data, tc.g); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeSlab = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// orphanRecord encodes a valid edge record over g whose last vertex in BFS
// order has lost its parent link: the checksum is valid, the tree is not.
func orphanRecord(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	rec := slabTestRecord(t, g, ModelEdge)
	v := rec.Order[len(rec.Order)-1]
	rec.Parent[v], rec.ParentEdge[v] = -1, graph.NoEdge
	data, err := EncodeSlabBytes(g, rec)
	if err != nil {
		t.Fatalf("EncodeSlabBytes: %v", err)
	}
	return data
}

// TestDecodeSlabRefusesOrphan checks that a record whose reached vertex,
// other than the source, has no parent is refused: it lies in no subtree of
// the plan's tree.
func TestDecodeSlabRefusesOrphan(t *testing.T) {
	g0, _ := slabTestGraphs(t)
	if _, err := DecodeSlab(orphanRecord(t, g0), g0); err == nil || !strings.Contains(err.Error(), "has no parent") {
		t.Fatalf("DecodeSlab of an orphaned vertex: %v, want a refusal", err)
	}
}

// FuzzDecodeSlab feeds arbitrary bytes to the binary record decoder, against
// a graph at generation 0 and at generation 1. The decoder must never panic
// and never allocate unboundedly; inputs that do decode must carry the slab
// magic and re-encode to exactly the bytes that were accepted (the format
// has a canonical form). The seeds cover an edge record, a vertex record
// and a generation-1 record, and records in the retired FTB3/FTB4 layouts
// and one with an orphaned vertex, which must be refused.
func FuzzDecodeSlab(f *testing.F) {
	g0, g1 := slabTestGraphs(f)
	var edge []byte
	for _, seed := range []struct {
		g     *graph.Graph
		model Model
	}{{g0, ModelEdge}, {g0, ModelVertex}, {g1, ModelEdge}} {
		valid, err := EncodeSlabBytes(seed.g, slabTestRecord(f, seed.g, seed.model))
		if err != nil {
			f.Fatalf("EncodeSlabBytes: %v", err)
		}
		if edge == nil {
			edge = valid
		}
		f.Add(valid)
		f.Add(valid[:slabHeaderSize])
	}
	for _, old := range []string{"FTB3", "FTB4"} {
		b := bytes.Clone(edge)
		copy(b, old)
		f.Add(reseal(b))
	}
	f.Add([]byte("FTB3"))
	f.Add([]byte("ftbfs-structure 1\nsource 0 eps 0.3 alg tree\n"))
	mut := bytes.Clone(edge)
	mut[70] ^= 0xff
	f.Add(mut)
	f.Add(orphanRecord(f, g0))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range []*graph.Graph{g0, g1} {
			dec, err := DecodeSlab(data, g)
			if err != nil {
				continue
			}
			if !IsSlabRecord(data) {
				t.Fatalf("accepted a record without the slab magic: %q", data[:min(4, len(data))])
			}
			again, err := EncodeSlabBytes(g, dec)
			if err != nil {
				t.Fatalf("accepted record failed to re-encode: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("accepted record is not canonical")
			}
		}
	})
}
