package batch

import (
	"slices"
	"strings"
	"testing"

	"ftbfs/internal/core"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
)

// sameStructure reports whether two structures record the same thing: the
// source, ε, the algorithm name, and the E(H) and E′ bitsets word for word.
func sameStructure(a, b *core.Structure) bool {
	return a.S == b.S && a.Eps == b.Eps && a.Stats.Algorithm == b.Stats.Algorithm &&
		slices.Equal(a.Edges.Words(), b.Edges.Words()) &&
		slices.Equal(a.Reinforced.Words(), b.Reinforced.Words())
}

// TestBuildMatchesSequential is the orchestrator's contract: for a mixed
// request list (several sources, several ε, several algorithms) the batch
// output is identical to one sequential core.Build per request, for every
// worker count.
func TestBuildMatchesSequential(t *testing.T) {
	g := gen.RandomConnected(90, 180, 11)
	reqs := []Request{
		{Source: 0, Eps: 0.2},
		{Source: 0, Eps: 0.3},
		{Source: 0, Eps: 0}, // tree branch
		{Source: 7, Eps: 0.25},
		{Source: 7, Eps: 1}, // baseline branch
		{Source: 23, Eps: 0.4},
		{Source: 23, Eps: 0.15, Opt: core.Options{SkipPhase1: true}},
		{Source: 41, Eps: 0.3, Opt: core.Options{Algorithm: core.Greedy}},
		{Source: 41, Eps: 0.3, Opt: core.Options{Algorithm: core.Baseline}},
	}
	want := make([]*core.Structure, len(reqs))
	for i, r := range reqs {
		st, err := core.Build(g, r.Source, r.Eps, r.Opt)
		if err != nil {
			t.Fatalf("sequential build %d: %v", i, err)
		}
		want[i] = st
	}
	for _, workers := range []int{1, 2, 4, 8} {
		sts, err := Build(g, reqs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(sts) != len(reqs) {
			t.Fatalf("workers=%d: %d results for %d requests", workers, len(sts), len(reqs))
		}
		for i, st := range sts {
			if !sameStructure(st, want[i]) {
				t.Fatalf("workers=%d request %d: batch structure differs from sequential Build", workers, i)
			}
			if viol := core.Verify(st.G, st.S, st.Edges, st.Reinforced, core.ModelEdge, 5); len(viol) > 0 {
				t.Fatalf("workers=%d request %d: contract violated: %v", workers, i, viol)
			}
		}
	}
}

func TestBuildValidation(t *testing.T) {
	g := gen.Cycle(12)
	if _, err := Build(g, []Request{{Source: 99, Eps: 0.3}}, Options{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := Build(g, []Request{{Source: 0, Eps: 0.3}, {Source: 1, Eps: 2}}, Options{}); err == nil {
		t.Fatal("ε > 1 accepted")
	} else if !strings.Contains(err.Error(), "request 1") {
		t.Fatalf("error does not name the failing request: %v", err)
	}
	unfrozen := graph.New(4)
	if _, err := Build(unfrozen, []Request{{Source: 0, Eps: 0.3}}, Options{}); err == nil {
		t.Fatal("unfrozen graph accepted")
	}
	if sts, err := Build(g, nil, Options{}); err != nil || sts != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", sts, err)
	}
}

// TestCostSweepMatchesCore checks the batched sweep against a loop of
// sequential core.Build calls priced by Structure.Cost, with the cheapest
// point the first of least cost.
func TestCostSweepMatchesCore(t *testing.T) {
	lb := gen.LowerBoundParams(3, 4, 8)
	grid := []float64{0, 0.2, 0.35, 1}
	var wantPts []core.CostPoint
	wantBest := -1
	for _, eps := range grid {
		st, err := core.Build(lb.G, lb.S, eps, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantPts = append(wantPts, core.CostPoint{Eps: eps, Backup: st.BackupCount(),
			Reinforced: st.ReinforcedCount(), Cost: st.Cost(1, 25)})
		if wantBest < 0 || wantPts[len(wantPts)-1].Cost < wantPts[wantBest].Cost {
			wantBest = len(wantPts) - 1
		}
	}
	gotPts, gotBest, err := CostSweep(lb.G, lb.S, grid, 1, 25, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if gotBest != wantBest || len(gotPts) != len(wantPts) {
		t.Fatalf("sweep mismatch: best %d vs %d, len %d vs %d", gotBest, wantBest, len(gotPts), len(wantPts))
	}
	for i := range gotPts {
		if gotPts[i] != wantPts[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, gotPts[i], wantPts[i])
		}
	}
}

// TestWorkspaceReuseAcrossGraphs exercises the per-worker engine recycling
// (the engine is the build workspace; Reset rebinds it per source) on
// graphs of different sizes — results must stay exact.
func TestWorkspaceReuseAcrossGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.RandomConnected(40, 70, 3),
		gen.RandomConnected(120, 260, 5),
	} {
		reqs := []Request{
			{Source: 0, Eps: 0.2}, {Source: 0, Eps: 0.45},
			{Source: 1, Eps: 0.3}, {Source: 2, Eps: 0.25},
		}
		sts, err := Build(g, reqs, Options{Workers: 1}) // one worker: one engine reused for all
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range sts {
			want, err := core.Build(g, reqs[i].Source, reqs[i].Eps, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameStructure(st, want) {
				t.Fatalf("request %d differs after workspace reuse", i)
			}
		}
	}
}
