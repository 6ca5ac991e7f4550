package ftbfs_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ftbfs"
)

func TestSaveLoadStructure(t *testing.T) {
	g := randomGraph(40, 60, 19)
	st, err := ftbfs.Build(g, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.SaveSlab(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ftbfs.LoadStructure(g, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != st.Size() || back.ReinforcedCount() != st.ReinforcedCount() {
		t.Fatal("round trip changed counts")
	}
	if back.Source() != 2 || back.Epsilon() != 0.3 {
		t.Fatal("metadata lost")
	}
	if err := back.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := ftbfs.LoadStructure(g, strings.NewReader("junk")); err == nil {
		t.Fatal("junk accepted")
	}
}

// TestLoadRefusesTextRecord: the slab is the one structure record, so both
// loaders refuse the text records (versions 1 and 2) the library wrote
// before it, whatever model the record holds.
func TestLoadRefusesTextRecord(t *testing.T) {
	g := randomGraph(40, 60, 19)
	st, err := ftbfs.Build(g, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var edgeText strings.Builder
	fmt.Fprintf(&edgeText, "ftbfs-structure 1\nsource %d eps %g alg %s\n", st.Source(), st.Epsilon(), st.Stats().Algorithm)
	for _, e := range st.Edges() {
		tag := "b"
		if st.IsReinforced(e[0], e[1]) {
			tag = "r"
		}
		fmt.Fprintf(&edgeText, "%s %d %d\n", tag, e[0], e[1])
	}
	vst, err := ftbfs.BuildVertex(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	var vertexText strings.Builder
	fmt.Fprintf(&vertexText, "ftbfs-structure 2 vertex\nsource %d pairs %d\n", vst.Source(), vst.Pairs())
	for _, e := range vst.Edges() {
		fmt.Fprintf(&vertexText, "e %d %d\n", e[0], e[1])
	}
	for _, rec := range []string{edgeText.String(), vertexText.String()} {
		if _, err := ftbfs.LoadStructure(g, strings.NewReader(rec)); err == nil {
			t.Errorf("LoadStructure accepted a text record starting %.30q", rec)
		}
		if _, err := ftbfs.LoadVertexStructure(g, strings.NewReader(rec)); err == nil {
			t.Errorf("LoadVertexStructure accepted a text record starting %.30q", rec)
		}
	}
}
