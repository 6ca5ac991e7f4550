package ftbfs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ftbfs/internal/bfs"
	"ftbfs/internal/core"
	"ftbfs/internal/gen"
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
// path {0,1}, {1,2}, {2,3} (it lacks G's tree edge {3,0}), and nothing is
// reinforced. The loader checks the record against itself, not against
// G's T0, so the record loads; Verify must still refuse it, because failing
// {0,1} strands vertex 1 in H while G\{0,1} reaches it at distance 3.
func TestVerifyRefusesLoadedRecordWithEmptyT0(t *testing.T) {
	st := loadFourCycleRecord(t)
	err := st.Verify()
	if want := `edge 0, vertex 1: dist in H\e = -1 > dist in G\e = 3`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Verify() = %v, want a violation %q", err, want)
	}
}

// loadFourCycleRecord saves the broken 4-cycle structure of
// TestVerifyRefusesLoadedRecordWithEmptyT0 and loads it back.
func loadFourCycleRecord(t *testing.T) *Structure {
	t.Helper()
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
	bad := newStructure(&core.Structure{G: g.g, S: 0, Edges: h, Reinforced: none})
	bad.st.Stats.Algorithm = core.Epsilon.String()
	var rec bytes.Buffer
	if err := bad.SaveSlab(&rec); err != nil {
		t.Fatal(err)
	}
	st, err := LoadStructure(g, &rec)
	if err != nil {
		t.Fatalf("LoadStructure: %v", err)
	}
	return st
}

// TestLoadStructureRefusesOrphan re-encodes a built structure's record with
// its last vertex in BFS order cut from its parent, under a valid checksum:
// LoadStructure must refuse it, as it loads the record unchanged.
func TestLoadStructureRefusesOrphan(t *testing.T) {
	g := &Graph{g: gen.RandomConnected(40, 100, 9)}
	st, err := Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.SaveSlab(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := core.DecodeSlab(buf.Bytes(), g.g)
	if err != nil {
		t.Fatal(err)
	}
	for _, orphan := range []bool{false, true} {
		if orphan {
			v := rec.Order[len(rec.Order)-1]
			rec.Parent[v], rec.ParentEdge[v] = -1, graph.NoEdge
		}
		data, err := core.EncodeSlabBytes(g.g, rec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = LoadStructure(g, bytes.NewReader(data))
		if !orphan && err != nil {
			t.Fatalf("re-encoded record: %v", err)
		}
		if orphan && (err == nil || !strings.Contains(err.Error(), "has no parent")) {
			t.Fatalf("record with an orphaned vertex: LoadStructure error %v", err)
		}
	}
}

// TestPlanTreeIsT0 is why a slab record needs no T0 section: for every
// built structure, H's canonical BFS tree — the plan's tree, whose
// parent and parentEdge arrays a record carries — is T0, G's canonical BFS
// tree from the source. The argument: every construction keeps
// T0 ⊆ H ⊆ G, which gives dist_H = dist_G. G's min-index parent p of v has
// {p, v} ∈ T0 ⊆ H, and H's candidate parents (neighbours one level up) are
// a subset of G's, so p is H's min-index parent too. The test checks it on
// fresh builds, after SaveSlab → LoadStructure, and after DeltaRebuild of a
// deletion outside H, and that CheckInvariants, which recomputes T0 from G,
// passes each structure and refuses the broken 4-cycle record.
func TestPlanTreeIsT0(t *testing.T) {
	two := graph.NewBuilder(50)
	for _, e := range gen.RandomConnected(30, 45, 8).Edges() {
		two.Add(int(e.U), int(e.V))
	}
	for _, e := range gen.RandomConnected(20, 25, 9).Edges() {
		two.Add(int(e.U)+30, int(e.V)+30)
	}
	corpus := map[string]*graph.Graph{
		"random-40":      gen.RandomConnected(40, 60, 1),
		"random-90":      gen.RandomConnected(90, 200, 2),
		"lowerbound":     gen.LowerBoundParams(3, 4, 8).G,
		"cycle":          gen.Cycle(23),
		"tree":           gen.RandomTree(45, 3),
		"two-components": two.Graph(),
	}
	check := func(what string, st *Structure) {
		t.Helper()
		g := st.g
		planTree := graph.NewEdgeSet(g.M())
		for _, id := range st.Plan().t.ParentEdge {
			if id != graph.NoEdge {
				planTree.Add(id)
			}
		}
		if t0 := bfs.From(g, st.src).EdgeSet(g.M()); !slices.Equal(planTree.Words(), t0.Words()) {
			t.Fatalf("%s: plan tree %v, T0 %v", what, planTree.IDs(), t0.IDs())
		}
		if err := core.CheckInvariants(st.st); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	carried := 0
	for name, gg := range corpus {
		g := &Graph{g: gg}
		for _, src := range []int{0, gg.N() - 1} {
			for _, alg := range []Algorithm{core.Tree, core.Baseline, core.Greedy, core.Epsilon} {
				for _, eps := range []float64{0.1, 0.25, 0.4} {
					what := fmt.Sprintf("%s s=%d %v ε=%g", name, src, alg, eps)
					st, err := Build(g, src, eps, WithAlgorithm(alg))
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					check(what+" built", st)
					var rec bytes.Buffer
					if err := st.SaveSlab(&rec); err != nil {
						t.Fatal(err)
					}
					loaded, err := LoadStructure(g, &rec)
					if err != nil {
						t.Fatalf("%s: LoadStructure: %v", what, err)
					}
					check(what+" loaded", loaded)
					off := -1
					for id := 0; id < gg.M(); id++ {
						if !st.st.Edges.Contains(graph.EdgeID(id)) {
							off = id
							break
						}
					}
					if off < 0 {
						continue // H = G: no deletion leaves H intact
					}
					e := gg.EdgeByID(graph.EdgeID(off))
					g1, d, err := g.Mutate([]Mutation{{Op: MutDelete, U: int(e.U), V: int(e.V)}})
					if err != nil {
						t.Fatal(err)
					}
					next, ok := DeltaRebuild(st, g1, d)
					if !ok {
						t.Fatalf("%s: DeltaRebuild refused a deletion outside H", what)
					}
					check(what+" carried", next)
					carried++
				}
			}
		}
	}
	if carried == 0 {
		t.Fatal("no structure was carried by DeltaRebuild")
	}
	if err := core.CheckInvariants(loadFourCycleRecord(t).st); err == nil || !strings.Contains(err.Error(), "T0 not contained in H") {
		t.Fatalf("CheckInvariants of the broken 4-cycle record = %v, want T0 not contained in H", err)
	}
}

// TestLoadVertexRefusesWrongPairs first checks Pairs against G's T0: it
// counts the edges of H outside T0. It then writes vertex records whose
// stored pair count is off by one through saveSlab, so each carries a
// valid checksum: LoadVertexStructure must refuse both, since the count is
// |H| − |T0| of the very H and tree the record holds, and load the record
// with the right count.
func TestLoadVertexRefusesWrongPairs(t *testing.T) {
	g := &Graph{g: gen.RandomConnected(40, 80, 6)}
	st, err := BuildVertex(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs, t0 := 0, bfs.From(g.g, 3).EdgeSet(g.M())
	st.h.ForEach(func(id graph.EdgeID) {
		if !t0.Contains(id) {
			pairs++
		}
	})
	if pairs == 0 || st.Pairs() != pairs {
		t.Fatalf("Pairs() = %d, H has %d edges outside T0 (want a positive count)", st.Pairs(), pairs)
	}
	for _, stored := range []int{pairs - 1, pairs, pairs + 1} {
		var rec bytes.Buffer
		if err := st.saveSlab(&rec, &core.SlabRecord{Model: core.ModelVertex, Pairs: stored}); err != nil {
			t.Fatal(err)
		}
		back, err := LoadVertexStructure(g, &rec)
		if stored == pairs {
			if err != nil || back.Pairs() != pairs {
				t.Fatalf("record with the right count: %v", err)
			}
		} else if err == nil || !strings.Contains(err.Error(), "pairs") {
			t.Fatalf("record storing %d pairs for %d: LoadVertexStructure error %v", stored, pairs, err)
		}
	}
}
