package store

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ftbfs"
	"ftbfs/internal/core"
)

func testGraph(t testing.TB, n, extra int, seed int64) *ftbfs.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := ftbfs.NewGraph(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(i, rng.Intn(i))
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

func savedBytes(t *testing.T, st *ftbfs.Structure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.SaveSlab(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGetOrBuildCachesAndCounts(t *testing.T) {
	s, err := New(8, "")
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.AddGraph(testGraph(t, 40, 60, 1))
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Graph: fp, Source: 0, Eps: 0.25}
	st1, err := s.GetOrBuild(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.GetOrBuild(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatal("second GetOrBuild did not hit the cache")
	}
	if got, ok := s.Get(k); !ok || got != st1 {
		t.Fatal("Get missed a resident structure")
	}
	stats := s.Stats()
	if stats.Builds != 1 || stats.Hits < 2 || stats.Misses != 1 || stats.Structures != 1 {
		t.Fatalf("unexpected stats %+v", stats)
	}
	if _, err := s.GetOrBuild(context.Background(), Key{Graph: fp + 1, Source: 0, Eps: 0.25}); err == nil {
		t.Fatal("unknown graph accepted")
	}
}

func TestGetOrBuildManyBatchesAndDedups(t *testing.T) {
	s, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.AddGraph(testGraph(t, 40, 60, 2))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Req{
		{Source: 0, Eps: 0.2},
		{Source: 3, Eps: 0.3},
		{Source: 0, Eps: 0.2}, // duplicate inside one batch
	}
	sts, err := s.GetOrBuildMany(context.Background(), fp, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 3 || sts[0] == nil || sts[1] == nil || sts[2] == nil {
		t.Fatalf("missing results: %v", sts)
	}
	if sts[0] != sts[2] {
		t.Fatal("duplicate request resolved to distinct structures")
	}
	if sts[0].Source() != 0 || sts[1].Source() != 3 {
		t.Fatal("results out of request order")
	}
	if got := s.Stats().Builds; got != 2 {
		t.Fatalf("built %d structures, want 2 (deduplicated)", got)
	}
}

func TestLRUEviction(t *testing.T) {
	s, err := New(2, "")
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.AddGraph(testGraph(t, 30, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	k1 := Key{Graph: fp, Source: 0, Eps: 0.2}
	k2 := Key{Graph: fp, Source: 0, Eps: 0.3}
	k3 := Key{Graph: fp, Source: 0, Eps: 0.4}
	for _, k := range []Key{k1, k2} {
		if _, err := s.GetOrBuild(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(k1); !ok { // touch k1 so k2 is the LRU victim
		t.Fatal("k1 not resident")
	}
	if _, err := s.GetOrBuild(context.Background(), k3); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("capacity 2 holds %d structures", s.Len())
	}
	if _, ok := s.Get(k2); ok {
		t.Fatal("LRU victim k2 still resident")
	}
	if _, ok := s.Get(k1); !ok {
		t.Fatal("recently-used k1 was evicted")
	}
	if got := s.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

// TestPersistRoundTripThroughEviction is the satellite round-trip: build with
// a persist directory, evict, load back through the store, and require the
// reloaded structure's Save output to be byte-identical to the original.
func TestPersistRoundTripThroughEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := New(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.AddGraph(testGraph(t, 50, 70, 4))
	if err != nil {
		t.Fatal(err)
	}
	k1 := Key{Graph: fp, Source: 0, Eps: 0.25}
	k2 := Key{Graph: fp, Source: 5, Eps: 0.3}
	st1, err := s.GetOrBuild(context.Background(), k1)
	if err != nil {
		t.Fatal(err)
	}
	want := savedBytes(t, st1)

	// Building k2 evicts k1 (capacity 1).
	if _, err := s.GetOrBuild(context.Background(), k2); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k1); ok {
		t.Fatal("k1 survived eviction at capacity 1")
	}
	builds := s.Stats().Builds

	st1b, err := s.GetOrBuild(context.Background(), k1) // must load through from disk, not rebuild
	if err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.Builds != builds {
		t.Fatalf("evicted structure was rebuilt (builds %d → %d), not loaded", builds, stats.Builds)
	}
	if stats.Loads == 0 {
		t.Fatal("load-through not counted")
	}
	if got := savedBytes(t, st1b); !bytes.Equal(got, want) {
		t.Fatalf("reloaded Save output differs from original:\n%s\nvs\n%s", got, want)
	}
}

func TestWarmStartFromDirectory(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s1.AddGraph(testGraph(t, 40, 50, 5))
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Graph: fp, Source: 2, Eps: 0.3}
	st, err := s1.GetOrBuild(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	want := savedBytes(t, st)

	// A fresh store over the same directory knows the graph and serves the
	// structure from disk without rebuilding.
	s2, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Graph(fp); !ok {
		t.Fatal("warm start did not load the graph")
	}
	st2, err := s2.GetOrBuild(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if got := savedBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("warm-started structure differs from original")
	}
	stats := s2.Stats()
	if stats.Builds != 0 || stats.Loads != 1 {
		t.Fatalf("warm start rebuilt instead of loading: %+v", stats)
	}

	// The persisted file names round-trip to their keys.
	files, err := filepath.Glob(filepath.Join(dir, "st-*.fts"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected 1 structure file, got %v (%v)", files, err)
	}
	got, ok := keyFromStructFile(files[0])
	if !ok || got != k {
		t.Fatalf("keyFromStructFile(%s) = %v, %v; want %v", filepath.Base(files[0]), got, ok, k)
	}
}

func TestCorruptFileFallsBackToRebuild(t *testing.T) {
	dir := t.TempDir()
	s, err := New(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.AddGraph(testGraph(t, 30, 40, 6))
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Graph: fp, Source: 0, Eps: 0.25}
	st, err := s.GetOrBuild(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	want := savedBytes(t, st)
	path := s.structPath(k)
	if err := os.WriteFile(path, []byte("ftbfs-structure 1\ngarbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Evict, then re-request: the corrupt file must be rebuilt around.
	if _, err := s.GetOrBuild(context.Background(), Key{Graph: fp, Source: 1, Eps: 0.25}); err != nil {
		t.Fatal(err)
	}
	st2, err := s.GetOrBuild(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if got := savedBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("rebuild after corrupt file differs")
	}
	// The rebuild overwrites the corrupt file with the binary slab record.
	var slab bytes.Buffer
	if err := st2.SaveSlab(&slab); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, slab.Bytes()) {
		t.Fatal("corrupt file was not overwritten by the rebuild")
	}
}

// TestBatchErrorDoesNotPoisonResolvedKeys: when one key of a batch fails to
// build, keys that did resolve (here: a load-through from disk) must still be
// inserted and served — not discarded with the unrelated error.
func TestBatchErrorDoesNotPoisonResolvedKeys(t *testing.T) {
	dir := t.TempDir()
	s, err := New(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.AddGraph(testGraph(t, 30, 40, 8))
	if err != nil {
		t.Fatal(err)
	}
	good := Key{Graph: fp, Source: 0, Eps: 0.25}
	if _, err := s.GetOrBuild(context.Background(), good); err != nil {
		t.Fatal(err)
	}
	// Evict `good` to disk, then request it together with an unbuildable key.
	if _, err := s.GetOrBuild(context.Background(), Key{Graph: fp, Source: 1, Eps: 0.25}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(good); ok {
		t.Fatal("good key not evicted")
	}
	_, err = s.GetOrBuildMany(context.Background(), fp, []Req{
		{Source: good.Source, Eps: good.Eps},
		{Source: 999, Eps: 0.25}, // out of range: fails validation in BuildBatch
	})
	if err == nil {
		t.Fatal("invalid source accepted")
	}
	if _, ok := s.Get(good); !ok {
		t.Fatal("loaded structure was discarded because an unrelated key failed")
	}
}

func TestWarmStartSkipsCorruptGraphFiles(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s1.AddGraph(testGraph(t, 30, 40, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "graph-dead.ftg"), []byte("not a graph"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := New(0, dir)
	if err != nil {
		t.Fatalf("one corrupt file made the store unbootable: %v", err)
	}
	if _, ok := s2.Graph(fp); !ok {
		t.Fatal("healthy graph not loaded alongside the corrupt file")
	}
	if got := s2.Stats().WarmQuarantined; got != 1 {
		t.Fatalf("WarmQuarantined = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "graph-dead.ftg.corrupt")); err != nil {
		t.Fatalf("corrupt graph file not quarantined: %v", err)
	}
}

func TestConcurrentGetOrBuildSingleFlight(t *testing.T) {
	s, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.AddGraph(testGraph(t, 60, 90, 7))
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{
		{Graph: fp, Source: 0, Eps: 0.2},
		{Graph: fp, Source: 0, Eps: 0.3},
		{Graph: fp, Source: 9, Eps: 0.2},
	}
	var wg sync.WaitGroup
	got := make([]*ftbfs.Structure, 24)
	for i := 0; i < 24; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := s.GetOrBuild(context.Background(), keys[i%len(keys)])
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = st
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] == nil {
			t.Fatalf("request %d resolved to nil", i)
		}
		if got[i] != got[i%len(keys)] {
			t.Fatalf("request %d: same key resolved to distinct structures", i)
		}
	}
	if builds := s.Stats().Builds; builds != uint64(len(keys)) {
		t.Fatalf("single-flight failed: %d builds for %d keys", builds, len(keys))
	}
}

func TestVertexKeyRoundTripsThroughFilename(t *testing.T) {
	k := VertexKey(0xdeadbeef01234567, 9)
	s := &Store{dir: "d"}
	got, ok := keyFromStructFile(s.structPath(k))
	if !ok || got != k {
		t.Fatalf("keyFromStructFile(%s) = %v, %v; want %v", s.structPath(k), got, ok, k)
	}
	if got.Model != core.ModelVertex {
		t.Fatalf("round-tripped key lost its model: %v", got)
	}
}

func TestGetOrBuildVertexCachesAndSeparatesModels(t *testing.T) {
	s, err := New(8, "")
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.AddGraph(testGraph(t, 40, 60, 1))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.GetOrBuildVertex(context.Background(), fp, 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.GetOrBuildVertex(context.Background(), fp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("second GetOrBuildVertex did not hit the cache")
	}
	if got, ok := s.GetVertex(fp, 0); !ok || got != v1 {
		t.Fatal("GetVertex missed a resident vertex structure")
	}
	// The edge structure of the same (graph, source) is a different entry.
	est, err := s.GetOrBuild(context.Background(), Key{Graph: fp, Source: 0, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("edge and vertex entries collapsed: Len = %d, want 2", s.Len())
	}
	if got, ok := s.Get(Key{Graph: fp, Source: 0, Eps: 0.25}); !ok || got != est {
		t.Fatal("edge entry disturbed by the vertex entry")
	}
	// Get must not hand a vertex entry to an edge caller.
	if _, ok := s.Get(VertexKey(fp, 0)); ok {
		t.Fatal("Get answered a vertex key")
	}
	if _, err := s.GetOrBuild(context.Background(), VertexKey(fp, 0)); err == nil {
		t.Fatal("GetOrBuild accepted a vertex key")
	}
}

func TestVertexPersistRoundTripThroughEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := New(1, dir) // capacity 1: the second entry evicts the first
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.AddGraph(testGraph(t, 40, 60, 2))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.GetOrBuildVertex(context.Background(), fp, 0)
	if err != nil {
		t.Fatal(err)
	}
	var firstSave bytes.Buffer
	if err := v1.SaveSlab(&firstSave); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "stv-*.fts"))
	if err != nil || len(files) != 1 {
		t.Fatalf("vertex structure not persisted: %v, %v", files, err)
	}
	// Evict the vertex structure by inserting an edge structure.
	if _, err := s.GetOrBuild(context.Background(), Key{Graph: fp, Source: 0, Eps: 0.25}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetVertex(fp, 0); ok {
		t.Fatal("vertex structure survived eviction at capacity 1")
	}
	before := s.Stats().Loads
	v2, err := s.GetOrBuildVertex(context.Background(), fp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Loads != before+1 {
		t.Fatalf("evicted vertex structure rebuilt instead of loaded (loads %d -> %d)", before, s.Stats().Loads)
	}
	var secondSave bytes.Buffer
	if err := v2.SaveSlab(&secondSave); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstSave.Bytes(), secondSave.Bytes()) {
		t.Fatal("load-through vertex structure differs from the built one")
	}
}

func TestConcurrentGetOrBuildVertexSingleFlight(t *testing.T) {
	s, err := New(8, "")
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.AddGraph(testGraph(t, 60, 90, 3))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]*ftbfs.VertexStructure, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.GetOrBuildVertex(context.Background(), fp, 5)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent GetOrBuildVertex returned distinct structures")
		}
	}
	if b := s.Stats().Builds; b != 1 {
		t.Fatalf("single-flight failed: %d builds for one key", b)
	}
}

// TestStructuresPersistAsSlabRecords pins the on-disk contract: the store
// writes binary slab records for both failure models, and an
// evicted structure loads back through the slab decoder (not the text one)
// into an answer-identical structure.
func TestStructuresPersistAsSlabRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.AddGraph(testGraph(t, 40, 60, 11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetOrBuild(context.Background(), Key{Graph: fp, Source: 0, Eps: 0.25}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetOrBuildVertex(context.Background(), fp, 0); err != nil {
		t.Fatal(err)
	}
	for _, pat := range []string{"st-*.fts", "stv-*.fts"} {
		files, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil || len(files) != 1 {
			t.Fatalf("glob %s: %v, %v", pat, files, err)
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if !core.IsSlabRecord(data) {
			t.Fatalf("%s does not start with the slab magic", filepath.Base(files[0]))
		}
		if err := core.CheckSlab(data); err != nil {
			t.Fatalf("%s fails integrity check: %v", filepath.Base(files[0]), err)
		}
	}
}

// TestWarmStartCountsAndSkipsStructureFiles: the warm scan accepts intact
// record files (counted in WarmLoaded), skips corrupt or truncated ones
// (counted in WarmSkipped) without making the store unbootable, and a skipped
// file's key still resolves later by rebuild-and-overwrite.
func TestWarmStartCountsAndSkipsStructureFiles(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s1.AddGraph(testGraph(t, 40, 60, 12))
	if err != nil {
		t.Fatal(err)
	}
	good := Key{Graph: fp, Source: 0, Eps: 0.25}
	bad := Key{Graph: fp, Source: 1, Eps: 0.25}
	for _, k := range []Key{good, bad} {
		if _, err := s1.GetOrBuild(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s1.GetOrBuildVertex(context.Background(), fp, 0); err != nil {
		t.Fatal(err)
	}
	// Truncate one record mid-payload: the checksum/length check must catch it.
	data, err := os.ReadFile(s1.structPath(bad))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s1.structPath(bad), data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(0, dir)
	if err != nil {
		t.Fatalf("one truncated structure file made the store unbootable: %v", err)
	}
	st := s2.Stats()
	if st.WarmLoaded != 3 { // graph + intact edge record + vertex record
		t.Fatalf("WarmLoaded = %d, want 3", st.WarmLoaded)
	}
	if st.WarmQuarantined != 1 {
		t.Fatalf("WarmQuarantined = %d, want 1", st.WarmQuarantined)
	}
	if st.WarmSkipped != 0 {
		t.Fatalf("WarmSkipped = %d, want 0", st.WarmSkipped)
	}
	// The damaged bytes are preserved next to the record, out of glob reach.
	if _, err := os.Stat(s1.structPath(bad) + ".corrupt"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	// The quarantined key rebuilds (writing a fresh record).
	if _, err := s2.GetOrBuild(context.Background(), bad); err != nil {
		t.Fatal(err)
	}
	if err := s2.checkStructFile(s2.structPath(bad)); err != nil {
		t.Fatalf("rebuilt record still corrupt: %v", err)
	}
}

// TestWarmStartQuarantinesTextRecord: the slab is the only structure record
// the store reads, so a text record (the format stores wrote before the
// slab) left in a persist directory is quarantined at warm start like any
// unreadable record — counted in WarmQuarantined, renamed .corrupt — and its
// key rebuilds on first use into a slab record.
func TestWarmStartQuarantinesTextRecord(t *testing.T) {
	checkRetiredRecordQuarantined(t, func(st *ftbfs.Structure, _ []byte) []byte {
		var text strings.Builder
		fmt.Fprintf(&text, "ftbfs-structure 1\nsource %d eps %g alg %s\n", st.Source(), st.Epsilon(), st.Stats().Algorithm)
		for _, e := range st.Edges() {
			tag := "b"
			if st.IsReinforced(e[0], e[1]) {
				tag = "r"
			}
			fmt.Fprintf(&text, "%s %d %d\n", tag, e[0], e[1])
		}
		return []byte(text.String())
	})
}

// TestWarmStartQuarantinesRetiredSlab: a slab record in a retired layout
// (magic FTB3 here; FTB4 fails the same magic check) fails the warm-start
// check, is quarantined and counted like a text record, and its key
// rebuilds on first use.
func TestWarmStartQuarantinesRetiredSlab(t *testing.T) {
	checkRetiredRecordQuarantined(t, func(_ *ftbfs.Structure, slab []byte) []byte {
		old := bytes.Clone(slab)
		copy(old, "FTB3")
		return old
	})
}

// checkRetiredRecordQuarantined builds one structure in a persist
// directory, overwrites its record with retired(structure, slab bytes),
// and checks that a warm start quarantines the file and counts it, and that
// the key rebuilds once into the same slab record.
func checkRetiredRecordQuarantined(t *testing.T, retired func(st *ftbfs.Structure, slab []byte) []byte) {
	t.Helper()
	dir := t.TempDir()
	s1, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s1.AddGraph(testGraph(t, 40, 60, 13))
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Graph: fp, Source: 0, Eps: 0.25}
	st, err := s1.GetOrBuild(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	want := savedBytes(t, st)
	old := retired(st, want)
	path := s1.structPath(k)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(0, dir)
	if err != nil {
		t.Fatalf("a retired record made the store unbootable: %v", err)
	}
	ws := s2.Stats()
	if ws.WarmLoaded != 1 || ws.WarmQuarantined != 1 || ws.WarmSkipped != 0 {
		t.Fatalf("warm start loaded %d, quarantined %d, skipped %d; want the graph loaded and the retired record quarantined",
			ws.WarmLoaded, ws.WarmQuarantined, ws.WarmSkipped)
	}
	if got, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("quarantined record missing or changed: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("retired record still in the load path: %v", err)
	}
	st2, err := s2.GetOrBuild(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().Builds != 1 {
		t.Fatalf("builds = %d, want the quarantined key rebuilt once", s2.Stats().Builds)
	}
	if got := savedBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("rebuilt structure differs from the one the retired record held")
	}
	if err := s2.checkStructFile(path); err != nil {
		t.Fatalf("rebuild did not write a slab record: %v", err)
	}
}
