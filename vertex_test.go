package ftbfs_test

// Differential tests of the vertex-failure serving path: the
// VertexQueryPlan fast paths (O(1) off-tree-path reads, subtree-local
// repairs) must equal the full restricted-BFS reference for EVERY failable
// vertex of every corpus graph — disconnecting failures included — and the
// grouped batch paths and pooled oracles must agree with the point path
// under -race. Mirrors the edge-plan tests in queryplan_test.go one model
// up.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ftbfs"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
)

// vertexCorpus returns named root-package graphs with a source each,
// including graphs whose vertex failures disconnect large chunks (stars,
// near-trees) and denser graphs where replacement paths exist.
func vertexCorpus() map[string]struct {
	g      *ftbfs.Graph
	source int
} {
	fromInternal := func(ig *graph.Graph) *ftbfs.Graph {
		g := ftbfs.NewGraph(ig.N())
		for _, e := range ig.EdgesView() {
			g.MustAddEdge(int(e.U), int(e.V))
		}
		return g
	}
	out := map[string]struct {
		g      *ftbfs.Graph
		source int
	}{
		// A star queried from a leaf: failing the hub disconnects everything.
		"star-from-leaf": {fromInternal(gen.Star(14)), 1},
		// Near-tree: plenty of cut vertices, so many failures disconnect.
		"sparse-random": {fromInternal(gen.RandomConnected(70, 80, 3)), 0},
		"denser-random": {fromInternal(gen.RandomConnected(60, 180, 5)), 7},
		"grid":          {fromInternal(gen.Grid(6, 6)), 2},
		"cycle":         {fromInternal(gen.Cycle(18)), 4},
	}
	for seed := int64(11); seed <= 13; seed++ {
		out[fmt.Sprintf("random-%d", seed)] = struct {
			g      *ftbfs.Graph
			source int
		}{fromInternal(gen.RandomConnected(50, 120, seed)), int(seed) % 5}
	}
	return out
}

// TestVertexPlanMatchesReference is the exhaustive differential: for every
// failable vertex w (every vertex but the source) and every target v, the
// plan-backed DistAvoidingVertex equals the full-BFS DistAvoidingVertexRef.
func TestVertexPlanMatchesReference(t *testing.T) {
	for name, tc := range vertexCorpus() {
		st, err := ftbfs.BuildVertex(tc.g, tc.source)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := st.Verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o := st.Oracle()
		n := tc.g.N()
		for w := 0; w < n; w++ {
			if w == tc.source {
				if _, err := o.DistAvoidingVertex(0, w); err == nil {
					t.Fatalf("%s: failing the source accepted", name)
				}
				continue
			}
			for v := 0; v < n; v++ {
				got, err := o.DistAvoidingVertex(v, w)
				if err != nil {
					t.Fatalf("%s: (v=%d, w=%d): %v", name, v, w, err)
				}
				want, err := o.DistAvoidingVertexRef(v, w)
				if err != nil {
					t.Fatalf("%s: ref (v=%d, w=%d): %v", name, v, w, err)
				}
				if got != want {
					t.Fatalf("%s: dist(v=%d | w=%d failed) = %d, reference = %d", name, v, w, got, want)
				}
			}
		}
	}
}

// TestVertexManyGroupsAndValidates checks the batch contracts: Many
// validates up front and never publishes partial results, Each fills
// per-slot errors, and both equal the point path query for query.
func TestVertexManyGroupsAndValidates(t *testing.T) {
	tc := vertexCorpus()["denser-random"]
	st, err := ftbfs.BuildVertex(tc.g, tc.source)
	if err != nil {
		t.Fatal(err)
	}
	o := st.Oracle()
	n := tc.g.N()
	rng := rand.New(rand.NewSource(42))
	var queries []ftbfs.VertexFailureQuery
	for len(queries) < 48 {
		w := rng.Intn(n)
		if w == tc.source {
			continue
		}
		// Deliberately repeat failed vertices so grouping shares repairs.
		for k := 0; k < 3; k++ {
			queries = append(queries, ftbfs.VertexFailureQuery{V: rng.Intn(n), Failed: w})
		}
	}
	out, err := o.DistAvoidingVertexMany(queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := o.DistAvoidingVertex(q.V, q.Failed)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("slot %d: batch %d != point %d", i, out[i], want)
		}
	}

	// An invalid slot fails the whole Many call before publishing anything.
	poisoned := append(append([]ftbfs.VertexFailureQuery(nil), queries...),
		ftbfs.VertexFailureQuery{V: 0, Failed: tc.source})
	sentinel := make([]int, len(poisoned))
	for i := range sentinel {
		sentinel[i] = -777
	}
	if _, err := o.DistAvoidingVertexMany(poisoned, sentinel); err == nil {
		t.Fatal("source-failure slot accepted")
	}
	for i, d := range sentinel {
		if d != -777 {
			t.Fatalf("Many published partial result at slot %d on error", i)
		}
	}

	// Each errors the bad slots individually and still answers the rest.
	outs, errs := o.DistAvoidingVertexEach(poisoned, nil, nil)
	if errs[len(poisoned)-1] == nil {
		t.Fatal("Each: source-failure slot not errored")
	}
	if !strings.Contains(errs[len(poisoned)-1].Error(), "cannot fail") {
		t.Fatalf("Each: unexpected error %v", errs[len(poisoned)-1])
	}
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("Each: valid slot %d errored: %v", i, errs[i])
		}
		if outs[i] != out[i] {
			t.Fatalf("Each: slot %d: %d != %d", i, outs[i], out[i])
		}
	}
}

// TestVertexPoolConcurrent hammers pooled oracles from many goroutines
// (run under -race in CI) and checks every answer against a precomputed
// reference table.
func TestVertexPoolConcurrent(t *testing.T) {
	tc := vertexCorpus()["sparse-random"]
	st, err := ftbfs.BuildVertex(tc.g, tc.source)
	if err != nil {
		t.Fatal(err)
	}
	n := tc.g.N()
	ref := st.Oracle()
	want := make([][]int, n) // want[w][v]
	for w := 0; w < n; w++ {
		if w == tc.source {
			continue
		}
		want[w] = make([]int, n)
		for v := 0; v < n; v++ {
			d, err := ref.DistAvoidingVertexRef(v, w)
			if err != nil {
				t.Fatal(err)
			}
			want[w][v] = d
		}
	}
	pool := st.OraclePool()
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for gid := 0; gid < 8; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gid)))
			for iter := 0; iter < 400; iter++ {
				w := rng.Intn(n)
				if w == tc.source {
					continue
				}
				v := rng.Intn(n)
				err := pool.Do(func(o *ftbfs.VertexOracle) error {
					if rng.Intn(4) == 0 {
						queries := []ftbfs.VertexFailureQuery{{V: v, Failed: w}, {V: (v + 3) % n, Failed: w}}
						out, err := o.DistAvoidingVertexMany(queries, nil)
						if err != nil {
							return err
						}
						if out[0] != want[w][v] || out[1] != want[w][(v+3)%n] {
							return fmt.Errorf("batch (v=%d, w=%d): got %v", v, w, out)
						}
						return nil
					}
					d, err := o.DistAvoidingVertex(v, w)
					if err != nil {
						return err
					}
					if d != want[w][v] {
						return fmt.Errorf("(v=%d, w=%d): got %d, want %d", v, w, d, want[w][v])
					}
					return nil
				})
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}(gid)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestVertexPersistRoundTrip checks SaveSlab → Load byte-for-byte re-save
// and answer equality.
func TestVertexPersistRoundTrip(t *testing.T) {
	tc := vertexCorpus()["denser-random"]
	st, err := ftbfs.BuildVertex(tc.g, tc.source)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.SaveSlab(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	back, err := ftbfs.LoadVertexStructure(tc.g, bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != st.Size() || back.Pairs() != st.Pairs() || back.Source() != st.Source() {
		t.Fatalf("round trip changed shape: %d/%d/%d != %d/%d/%d",
			back.Size(), back.Pairs(), back.Source(), st.Size(), st.Pairs(), st.Source())
	}
	var buf2 bytes.Buffer
	if err := back.SaveSlab(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), saved) {
		t.Fatal("re-save is not byte-identical")
	}
	o, bo := st.Oracle(), back.Oracle()
	n := tc.g.N()
	for w := 0; w < n; w++ {
		if w == tc.source {
			continue
		}
		for v := 0; v < n; v += 7 {
			d1, err1 := o.DistAvoidingVertex(v, w)
			d2, err2 := bo.DistAvoidingVertex(v, w)
			if err1 != nil || err2 != nil || d1 != d2 {
				t.Fatalf("(v=%d, w=%d): %d/%v != %d/%v", v, w, d1, err1, d2, err2)
			}
		}
	}
}

// TestVertexStructureLoadRejectsEdgeRecord pins the model check of the slab
// loaders: an edge record must not load as a vertex structure and vice
// versa.
func TestVertexStructureLoadRejectsEdgeRecord(t *testing.T) {
	tc := vertexCorpus()["cycle"]
	est, err := ftbfs.Build(tc.g, tc.source, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var edgeRec bytes.Buffer
	if err := est.SaveSlab(&edgeRec); err != nil {
		t.Fatal(err)
	}
	if _, err := ftbfs.LoadVertexStructure(tc.g, bytes.NewReader(edgeRec.Bytes())); err == nil {
		t.Fatal("edge record loaded as a vertex structure")
	}
	vst, err := ftbfs.BuildVertex(tc.g, tc.source)
	if err != nil {
		t.Fatal(err)
	}
	var vertexRec bytes.Buffer
	if err := vst.SaveSlab(&vertexRec); err != nil {
		t.Fatal(err)
	}
	if _, err := ftbfs.LoadStructure(tc.g, bytes.NewReader(vertexRec.Bytes())); err == nil {
		t.Fatal("vertex record loaded as an edge structure")
	}
}

func TestBuildVertexFT(t *testing.T) {
	g := ringWithChords(18)
	vs, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := vs.Verify(); err != nil {
		t.Fatal(err)
	}
	if vs.Size() < g.N()-1 || vs.Size() > g.M() {
		t.Fatalf("size %d outside [n-1, m]", vs.Size())
	}
	found := false
	for u := 0; u < g.N() && !found; u++ {
		for v := u + 1; v < g.N(); v++ {
			if vs.Contains(u, v) {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("structure contains no edges?")
	}
	if vs.Contains(0, 0) {
		t.Fatal("self-loop reported present")
	}
}

func TestVertexFTErrorPropagation(t *testing.T) {
	g := ftbfs.NewGraph(3)
	g.MustAddEdge(0, 1)
	if _, err := ftbfs.BuildVertex(g, 9); err == nil {
		t.Fatal("bad source accepted")
	}
}
