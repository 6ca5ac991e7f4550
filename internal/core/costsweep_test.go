package core_test

import (
	"math"
	"testing"

	"ftbfs/internal/batch"
	"ftbfs/internal/core"
	"ftbfs/internal/gen"
)

// The cost model (CostPoint, Structure.Cost, the default grid) is core's;
// the sweep that prices it runs through the batch orchestrator, which
// imports core, so these tests sit in an external test package.

func TestCostPointArithmetic(t *testing.T) {
	g := gen.CliqueChain(12)
	points, best, err := batch.CostSweep(g, 0, []float64{0, 1}, 2, 7, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		want := 2*float64(p.Backup) + 7*float64(p.Reinforced)
		if math.Abs(p.Cost-want) > 1e-9 {
			t.Fatalf("cost %g want %g", p.Cost, want)
		}
	}
	if best != 0 && best != 1 {
		t.Fatal("best index out of range")
	}
}

func TestCostSweepPropagatesBuildError(t *testing.T) {
	g := gen.Cycle(6)
	if _, _, err := batch.CostSweep(g, 99, []float64{0.2}, 1, 1, batch.Options{}); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, _, err := batch.CostSweep(g, 0, []float64{-3}, 1, 1, batch.Options{}); err == nil {
		t.Fatal("bad eps accepted")
	}
}

func TestCostSweep(t *testing.T) {
	g := gen.LowerBoundParams(2, 3, 5).G
	grid := []float64{0, 0.25, 0.5, 1}
	points, best, err := batch.CostSweep(g, 0, grid, 1, 50, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(grid) || best < 0 || best >= len(points) {
		t.Fatalf("sweep shape wrong: %d points, best=%d", len(points), best)
	}
	for _, p := range points {
		if p.Cost < points[best].Cost {
			t.Fatal("best is not minimal")
		}
		if p.Cost != float64(p.Backup)+50*float64(p.Reinforced) {
			t.Fatal("cost arithmetic wrong")
		}
	}
	if len(core.DefaultEpsGrid()) < 5 {
		t.Fatal("default grid too small")
	}
}

// When reinforcement is expensive, the sweep should not pick a
// reinforcement-heavy point over the baseline; when it is cheap, ε=0 (all
// tree edges reinforced, b=0) should win on the lower-bound family.
func TestCostSweepDirection(t *testing.T) {
	g := gen.LowerBoundParams(3, 4, 8).G
	grid := []float64{0, 0.25, 1}
	// reinforcement cheap: ε=0 optimal
	_, best, err := batch.CostSweep(g, 0, grid, 1000, 1, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if grid[best] != 0 {
		t.Fatalf("cheap reinforcement: best ε=%g want 0", grid[best])
	}
	// reinforcement exorbitant: the optimum must avoid reinforcement
	// entirely (ε=1 guarantees r=0, but a smaller ε may reach r=0 with
	// fewer backup edges and win — both are acceptable).
	points, best, err := batch.CostSweep(g, 0, grid, 1, 1e9, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if points[best].Reinforced != 0 {
		t.Fatalf("expensive reinforcement: best point still reinforces %d edges (ε=%g)",
			points[best].Reinforced, grid[best])
	}
}
