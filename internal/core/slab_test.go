package core

import (
	"bytes"
	"testing"

	"ftbfs/internal/bfs"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
)

// slabTestRecord builds a structure over a small random graph and captures
// it as a SlabRecord the way the root package does: edge sets from the
// build, serving arrays from H's own CSR and canonical BFS tree.
func slabTestRecord(t testing.TB, n, m int, seed int64) (*graph.Graph, *SlabRecord) {
	if t != nil {
		t.Helper()
	}
	g := gen.RandomConnected(n, m, seed)
	st, err := Build(g, 0, 0.3, Options{})
	if err != nil {
		if t != nil {
			t.Fatalf("Build: %v", err)
		}
		panic(err)
	}
	alg, err := ParseAlgorithm(st.Stats.Algorithm)
	if err != nil {
		if t != nil {
			t.Fatalf("ParseAlgorithm: %v", err)
		}
		panic(err)
	}
	h := g.SubgraphCSR(st.Edges)
	bt := bfs.FromCSR(h, st.S)
	return g, &SlabRecord{
		Model:      ModelEdge,
		S:          st.S,
		Eps:        st.Eps,
		Alg:        alg,
		Edges:      st.Edges,
		Reinforced: st.Reinforced,
		TreeEdges:  st.TreeEdges,
		Intact:     bt.Dist,
		RowStart:   h.RowStart,
		Arcs:       h.Arcs,
		Parent:     bt.Parent,
		ParentEdge: bt.ParentEdge,
		Order:      bt.Order,
	}
}

// TestSlabRoundTrip encodes a record and decodes it back, comparing every
// array and the re-encoded bytes.
func TestSlabRoundTrip(t *testing.T) {
	g, rec := slabTestRecord(t, 60, 150, 5)
	data, err := EncodeSlabBytes(g, rec)
	if err != nil {
		t.Fatalf("EncodeSlabBytes: %v", err)
	}
	if !IsSlabRecord(data) {
		t.Fatalf("encoded record not sniffed as slab")
	}
	back, err := DecodeSlab(data, g)
	if err != nil {
		t.Fatalf("DecodeSlab: %v", err)
	}
	if back.S != rec.S || back.Eps != rec.Eps || back.Alg != rec.Alg || back.Model != rec.Model {
		t.Fatalf("metadata changed in round trip")
	}
	if back.Edges.Len() != rec.Edges.Len() || back.Reinforced.Len() != rec.Reinforced.Len() ||
		back.TreeEdges.Len() != rec.TreeEdges.Len() {
		t.Fatalf("edge sets changed in round trip")
	}
	again, err := EncodeSlabBytes(g, back)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoded bytes differ")
	}
	// The retired text records must never sniff as slabs.
	if IsSlabRecord([]byte("ftbfs-structure 1\n")) || IsSlabRecord([]byte("ftbfs-structure 2 vertex\n")) {
		t.Fatalf("text header sniffed as binary")
	}
}

// FuzzDecodeSlab feeds arbitrary bytes to the binary record decoder. The
// decoder must never panic and never allocate unboundedly; inputs that do
// decode must re-encode to exactly the bytes that were accepted (the format
// has a canonical form).
func FuzzDecodeSlab(f *testing.F) {
	g, rec := slabTestRecord(nil, 40, 100, 9)
	valid, err := EncodeSlabBytes(g, rec)
	if err != nil {
		f.Fatalf("EncodeSlabBytes: %v", err)
	}
	f.Add(valid)
	f.Add(valid[:slabHeaderSize])
	f.Add([]byte("FTB3"))
	f.Add([]byte("ftbfs-structure 1\nsource 0 eps 0.3 alg tree\n"))
	mut := bytes.Clone(valid)
	mut[70] ^= 0xff
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeSlab(data, g)
		if err != nil {
			return
		}
		again, err := EncodeSlabBytes(g, dec)
		if err != nil {
			t.Fatalf("accepted record failed to re-encode: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("accepted record is not canonical")
		}
	})
}
