package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"ftbfs"
)

// TestHandoffExportImportRoundTrip moves edge and vertex structures between
// two stores through the record path and checks the receiver answers from
// the installed copies without ever building.
func TestHandoffExportImportRoundTrip(t *testing.T) {
	src, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 50, 80, 9)
	fp, err := src.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	ek := Key{Graph: fp, Source: 3, Eps: 0.25}
	if _, err := src.GetOrBuild(context.Background(), ek); err != nil {
		t.Fatal(err)
	}
	vk := VertexKey(fp, 3)
	if _, err := src.GetOrBuildVertex(context.Background(), fp, 3); err != nil {
		t.Fatal(err)
	}

	if !src.Has(ek) || !src.Has(vk) {
		t.Fatal("source does not report holding what it built")
	}
	keys := src.Keys()
	if len(keys) != 2 {
		t.Fatalf("source inventories %d keys, want 2: %v", len(keys), keys)
	}

	dst, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	// Graph must be registered first; a record import without it must fail.
	rec, err := src.ExportRecord(ek)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportRecord(ek, rec); err == nil {
		t.Fatal("import without the graph registered succeeded")
	}
	text, err := src.GraphText(fp)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ftbfs.ReadGraph(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := dst.AddGraph(g2)
	if err != nil {
		t.Fatal(err)
	}
	if fp2 != fp {
		t.Fatalf("graph round trip changed the fingerprint: %016x != %016x", fp2, fp)
	}

	for _, k := range keys {
		rec, err := src.ExportRecord(k)
		if err != nil {
			t.Fatal(err)
		}
		installed, err := dst.ImportRecord(k, rec)
		if err != nil {
			t.Fatal(err)
		}
		if !installed {
			t.Fatalf("import of %v reported not installed", k)
		}
		// Idempotent: a second import of a resident key is a no-op.
		if again, err := dst.ImportRecord(k, rec); err != nil || again {
			t.Fatalf("re-import of %v: installed=%v err=%v", k, again, err)
		}
		if !dst.Has(k) {
			t.Fatalf("receiver does not hold %v after import", k)
		}
	}

	// Receiver answers identically to the source, with zero builds.
	est, ok := dst.Get(ek)
	if !ok {
		t.Fatal("edge structure not resident on receiver")
	}
	want, _ := src.Get(ek)
	wo, eo := want.Oracle(), est.Oracle()
	for v := 0; v < g.N(); v += 5 {
		if wo.Dist(v) != eo.Dist(v) {
			t.Fatalf("dist(%d) differs after handoff: %d != %d", v, eo.Dist(v), wo.Dist(v))
		}
	}
	vst, ok := dst.GetVertex(fp, 3)
	if !ok {
		t.Fatal("vertex structure not resident on receiver")
	}
	if vst.Source() != 3 {
		t.Fatalf("vertex structure source %d after handoff", vst.Source())
	}
	stats := dst.Stats()
	if stats.Builds != 0 {
		t.Fatalf("receiver built %d structures — handoff must not rebuild", stats.Builds)
	}
	if stats.HandoffsIn != 2 {
		t.Fatalf("receiver counted %d handoffs in, want 2", stats.HandoffsIn)
	}
	if src.Stats().HandoffsOut < 2 {
		t.Fatalf("source counted %d handoffs out, want ≥ 2", src.Stats().HandoffsOut)
	}
}

// TestHandoffRejectsMisaddressedRecords pins the cross-checks: a record
// installed under the wrong key must be rejected, not silently served.
func TestHandoffRejectsMisaddressedRecords(t *testing.T) {
	src, _ := New(0, "")
	g := testGraph(t, 30, 40, 10)
	fp, err := src.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	ek := Key{Graph: fp, Source: 1, Eps: 0.5}
	if _, err := src.GetOrBuild(context.Background(), ek); err != nil {
		t.Fatal(err)
	}
	if _, err := src.GetOrBuildVertex(context.Background(), fp, 1); err != nil {
		t.Fatal(err)
	}
	edgeRec, err := src.ExportRecord(ek)
	if err != nil {
		t.Fatal(err)
	}
	vertRec, err := src.ExportRecord(VertexKey(fp, 1))
	if err != nil {
		t.Fatal(err)
	}

	dst, _ := New(0, "")
	if _, err := dst.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		k    Key
		rec  []byte
	}{
		{"edge record under vertex key", VertexKey(fp, 1), edgeRec},
		{"vertex record under edge key", ek, vertRec},
		{"wrong source", Key{Graph: fp, Source: 2, Eps: 0.5}, edgeRec},
		{"wrong eps", Key{Graph: fp, Source: 1, Eps: 0.25}, edgeRec},
		{"truncated record", ek, edgeRec[:len(edgeRec)/2]},
		{"retired FTB3 record", ek, append([]byte("FTB3"), edgeRec[4:]...)},
	}
	for _, tc := range cases {
		if installed, err := dst.ImportRecord(tc.k, tc.rec); err == nil || installed {
			t.Fatalf("%s: installed=%v err=%v — must reject", tc.name, installed, err)
		}
	}
	if dst.Stats().HandoffsIn != 0 {
		t.Fatalf("rejected imports still counted: %d", dst.Stats().HandoffsIn)
	}
	// Exporting a key nobody holds is ErrNotHeld, distinguishable from faults.
	if _, err := src.ExportRecord(Key{Graph: fp, Source: 9, Eps: 0.1}); err == nil {
		t.Fatal("export of an unheld key succeeded")
	}
}

// TestHandoffGenerationRecords pins the live-graph handoff contract: an
// exported record is the structure's SaveSlab bytes and round-trips through
// export/import unchanged. A mutated lineage hands off records that carry
// their generation, and a stale-generation record is rejected rather than
// silently served against the wrong graph.
func TestHandoffGenerationRecords(t *testing.T) {
	src, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 40, 60, 12)
	fp, err := src.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	ek := Key{Graph: fp, Source: 2, Eps: 0.3}
	st, err := src.GetOrBuild(context.Background(), ek)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := src.ExportRecord(ek)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.SaveSlab(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, buf.Bytes()) {
		t.Fatal("export rewrote the gen-0 record")
	}

	// Unchanged through a full handoff round trip.
	dst, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	if installed, err := dst.ImportRecord(ek, rec); err != nil || !installed {
		t.Fatalf("gen-0 import: installed=%v err=%v", installed, err)
	}
	rec2, err := dst.ExportRecord(ek)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, rec2) {
		t.Fatal("handoff changed gen-0 record bytes")
	}

	// Mutate the source lineage: the serving record moves to generation 1.
	e := st.Edges()[0]
	res, err := src.Mutate(context.Background(), fp, []ftbfs.Mutation{
		{Op: ftbfs.MutDelete, U: e[0], V: e[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 1 {
		t.Fatalf("mutation reached gen %d, want 1", res.Gen)
	}
	rec3, err := src.ExportRecord(ek)
	if err != nil {
		t.Fatal(err)
	}

	// A receiver registered at the mutated generation imports the gen-1 record;
	// the stale gen-0 record must be rejected, not served.
	text, err := src.GraphText(fp)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := ftbfs.ReadGraph(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if g1.Generation() != 1 {
		t.Fatalf("graph text carried generation %d, want 1", g1.Generation())
	}
	dst2, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := dst2.AddGraph(g1)
	if err != nil {
		t.Fatal(err)
	}
	if fp2 != fp {
		t.Fatalf("mutated graph registered under %016x, want lineage %016x", fp2, fp)
	}
	if installed, err := dst2.ImportRecord(ek, rec); err == nil && installed {
		t.Fatal("stale gen-0 record imported against a gen-1 registration")
	}
	if installed, err := dst2.ImportRecord(ek, rec3); err != nil || !installed {
		t.Fatalf("gen-1 import: installed=%v err=%v", installed, err)
	}
}

// TestHandoffPersistedStores exercises the disk paths: Keys/Has/Export see
// evicted (disk-only) structures, and an import persists the record so it
// survives a store restart.
func TestHandoffPersistedStores(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, err := New(0, srcDir)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 30, 40, 11)
	fp, err := src.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Graph: fp, Source: 0, Eps: 0.25}
	if _, err := src.GetOrBuild(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	// Reopen the source: the structure is now disk-only until touched.
	src2, err := New(0, srcDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src2.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	if !src2.Has(k) {
		t.Fatal("reopened store does not Have its persisted structure")
	}
	found := false
	for _, kk := range src2.Keys() {
		if kk == k {
			found = true
		}
	}
	if !found {
		t.Fatalf("persisted key missing from inventory: %v", src2.Keys())
	}
	rec, err := src2.ExportRecord(k)
	if err != nil {
		t.Fatal(err)
	}

	dst, err := New(0, dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	if installed, err := dst.ImportRecord(k, rec); err != nil || !installed {
		t.Fatalf("import onto persisted store: installed=%v err=%v", installed, err)
	}
	// The record file landed on the receiver's disk.
	matches, _ := filepath.Glob(filepath.Join(dstDir, "st-*.fts"))
	if len(matches) != 1 {
		t.Fatalf("receiver persisted %d record files, want 1", len(matches))
	}
	if fi, err := os.Stat(matches[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("persisted handoff record unreadable: %v", err)
	}
	// A reopened receiver loads the handed-off structure from disk.
	dst2, err := New(0, dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst2.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	st, err := dst2.GetOrBuild(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source() != 0 || dst2.Stats().Builds != 0 {
		t.Fatalf("reopened receiver rebuilt instead of loading (builds=%d)", dst2.Stats().Builds)
	}
}
