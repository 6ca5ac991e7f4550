package core

import (
	"sync"
	"testing"

	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

func TestLastUnprotectedParallelMatchesSerial(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.LowerBoundParams(3, 4, 8).G,
		gen.RandomConnected(80, 120, 3),
		gen.Cycle(50),
	} {
		en := replacement.NewEngine(g, 0)
		h := en.TreeEdges.Clone()
		// a partially protected structure: add a few last edges
		for i, p := range en.AllPairs() {
			if i%3 == 0 {
				h.Add(p.LastID)
			}
		}
		serial := LastUnprotected(en, h).IDs()
		for _, workers := range []int{1, 2, 4, 8} {
			enP := replacement.NewEngine(g, 0) // fresh engine: scratch is not shared
			par := LastUnprotectedParallel(enP, h, workers).IDs()
			if len(par) != len(serial) {
				t.Fatalf("workers=%d: %d vs %d unprotected", workers, len(par), len(serial))
			}
			for i := range par {
				if par[i] != serial[i] {
					t.Fatalf("workers=%d: sets differ at %d", workers, i)
				}
			}
		}
	}
}

func TestForEachFailureParallelCoverage(t *testing.T) {
	g := gen.RandomConnected(70, 100, 9)
	en := replacement.NewEngine(g, 0)
	type rec struct {
		child int32
		sum   int64
	}
	want := map[graph.EdgeID]rec{}
	en.ForEachFailure(func(e graph.EdgeID, child int32, distE []int32) {
		var s int64
		for _, d := range distE {
			s += int64(d)
		}
		want[e] = rec{child, s}
	})
	for _, workers := range []int{2, 5} {
		enP := replacement.NewEngine(g, 0)
		var mu sync.Mutex
		got := map[graph.EdgeID]rec{}
		enP.ForEachFailureParallel(workers, func(e graph.EdgeID, child int32, distE []int32) {
			var s int64
			for _, d := range distE {
				s += int64(d)
			}
			mu.Lock()
			got[e] = rec{child, s}
			mu.Unlock()
		})
		if len(got) != len(want) {
			t.Fatalf("workers=%d: visited %d failures want %d", workers, len(got), len(want))
		}
		for e, r := range want {
			if got[e] != r {
				t.Fatalf("workers=%d: failure %d results differ", workers, e)
			}
		}
	}
}

func TestBuildWithWorkersMatchesSequential(t *testing.T) {
	g := gen.RandomConnected(70, 110, 29)
	seq := mustBuild(t, g, 0, 0.3, Options{})
	for _, w := range []int{-1, 2, 6} {
		par := mustBuild(t, g, 0, 0.3, Options{Workers: w})
		a, b := seq.Reinforced.IDs(), par.Reinforced.IDs()
		if len(a) != len(b) {
			t.Fatalf("workers=%d: reinforced %d vs %d", w, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: reinforced sets differ", w)
			}
		}
		if par.Size() != seq.Size() {
			t.Fatalf("workers=%d: sizes differ", w)
		}
	}
}
