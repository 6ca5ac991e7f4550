package ftbfs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftbfs/internal/core"
	"ftbfs/internal/graph"
)

// TestReadRecordKeepsNoDoubledBuffer pins the buffer readRecord returns to
// about the record's size. A slab structure aliases that buffer for its
// whole life, so a buffer grown to twice the record on the read that finds
// EOF would double what every loaded, reloaded or handed-off structure
// keeps live.
func TestReadRecordKeepsNoDoubledBuffer(t *testing.T) {
	check := func(what string, size int, data []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s, %d bytes: %v", what, size, err)
		}
		if len(data) != size {
			t.Fatalf("%s: read %d bytes, want %d", what, len(data), size)
		}
		if 2*cap(data) >= 3*len(data) {
			t.Fatalf("%s, %d bytes: buffer capacity %d is %.2fx the record", what, size, cap(data), float64(cap(data))/float64(size))
		}
	}
	rec := make([]byte, 64<<10)
	for size := 4 << 10; size <= 64<<10; size += 13 {
		data, err := readRecord(bytes.NewReader(rec[:size]))
		check("bytes.Reader", size, data, err)
	}
	dir := t.TempDir()
	for _, size := range []int{4097, 12000, 40000, 65000} {
		path := filepath.Join(dir, "rec")
		if err := os.WriteFile(path, rec[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := readRecord(f)
		f.Close()
		check("file", size, data, err)
	}
}

// TestVerifyRefusesLoadedRecordWithEmptyT0 saves and loads a structure that
// breaks the contract: G is the 4-cycle 0-1-2-3-0 with source 0, H is the
// path {0,1}, {1,2}, {2,3}, nothing is reinforced, and the record's T0
// section is empty. The loader never reads T0 against G, so the record
// loads; Verify must still refuse it, because failing {0,1} strands vertex
// 1 in H while G\{0,1} reaches it at distance 3.
func TestVerifyRefusesLoadedRecordWithEmptyT0(t *testing.T) {
	g := NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		g.MustAddEdge(e[0], e[1])
	}
	g.Freeze()
	h := graph.NewEdgeSet(g.M())
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		h.Add(g.g.EdgeIDOf(e[0], e[1]))
	}
	none := graph.NewEdgeSet(g.M())
	bad := newStructure(&core.Structure{G: g.g, S: 0, Edges: h, Reinforced: none, TreeEdges: none})
	bad.st.Stats.Algorithm = core.Epsilon.String()
	var rec bytes.Buffer
	if err := bad.SaveSlab(&rec); err != nil {
		t.Fatal(err)
	}
	st, err := LoadStructure(g, &rec)
	if err != nil {
		t.Fatalf("LoadStructure: %v", err)
	}
	err = st.Verify()
	if want := `edge 0, vertex 1: dist in H\e = -1 > dist in G\e = 3`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Verify() = %v, want a violation %q", err, want)
	}
}
