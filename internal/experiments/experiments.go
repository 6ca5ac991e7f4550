// Package experiments regenerates, one table per experiment id, the
// paper-shaped results E1–E11 (`go run ./cmd/experiments -quick all` prints
// every table): the reinforcement-backup tradeoff of Theorem 3.1, the
// Θ(n^{3/2}) baseline of [14], the lower-bound families of Theorems 5.1/5.4,
// the cost corollary, the decomposition facts, the interference census and
// the vertex-failure extension.
//
// The absolute numbers depend on machine-free combinatorics only (edge
// counts, not wall-clock), so the tables are deterministic.
package experiments

import (
	"fmt"
	"io"
	"math"

	"ftbfs/internal/batch"
	"ftbfs/internal/bfs"
	"ftbfs/internal/core"
	"ftbfs/internal/expstats"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
	"ftbfs/internal/tree"
)

// Config tunes an experiment run.
type Config struct {
	Quick bool // smaller instances (used by benchmarks and -quick)
}

// Experiment couples an id with its implementation.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) ([]*expstats.Table, error)
}

// All returns the experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"tradeoff-upper", "E1: reinforcement-backup tradeoff (Thm 3.1)", TradeoffUpper},
		{"baseline-n32", "E2: FT-BFS baseline size Θ(n^{3/2}) ([14], ε=1)", BaselineN32},
		{"lower-bound", "E3: single-source lower bound (Thm 5.1, Fig. 10, Claim 5.3)", LowerBoundExp},
		{"mbfs-lower-bound", "E4: multi-source lower bound (Thm 5.4)", MBFSLowerBound},
		{"cost-curve", "E5: cost-optimal ε vs price ratio (§1 corollary)", CostCurve},
		{"clique-example", "E6: introduction's clique example", CliqueExample},
		{"decomposition", "E7: tree decomposition facts (Fact 3.3, Fact 4.1)", Decomposition},
		{"interference", "E8: interference census (Fig. 1-2, types A/B/C)", Interference},
		{"phase-ablation", "E9: phase ablation and heuristics", PhaseAblation},
		{"verify-exact", "E10: exhaustive contract verification (Def. 2.1)", VerifyExact},
		{"vertex-ft", "E11 (extension): single vertex-failure FT-BFS structures", VertexFT},
	}
}

// Run executes the experiment with the given id, rendering tables to w.
func Run(id string, cfg Config, w io.Writer) error {
	for _, e := range All() {
		if e.ID == id {
			fmt.Fprintf(w, "# %s\n\n", e.Title)
			tables, err := e.Run(cfg)
			if err != nil {
				return err
			}
			for _, t := range tables {
				t.Render(w)
				fmt.Fprintln(w)
			}
			return nil
		}
	}
	return fmt.Errorf("experiments: unknown id %q", id)
}

func must(st *core.Structure, err error) *core.Structure {
	if err != nil {
		panic(err)
	}
	return st
}

// sweep builds one structure per (eps, options) item on a fixed (g, s)
// through the batch orchestrator, so the whole sweep shares one BFS tree, one
// Phase S0 pass and one reinforcement sweep.
func sweep(g *graph.Graph, s int, items []batch.Request) ([]*core.Structure, error) {
	for i := range items {
		items[i].Source = s
	}
	return batch.Build(g, items, batch.Options{})
}

// epsSweep is sweep over a plain ε grid with default options.
func epsSweep(g *graph.Graph, s int, grid []float64) ([]*core.Structure, error) {
	items := make([]batch.Request, len(grid))
	for i, eps := range grid {
		items[i] = batch.Request{Eps: eps}
	}
	return sweep(g, s, items)
}

// lowerBoundDeep sizes a Theorem 5.1 instance like gen.LowerBound but
// guarantees paths of length ≥ 3: with d ≤ 2 the whole biclique is already
// forced by star-edge failures and reinforcing Π cannot pay off.
func lowerBoundDeep(n int, eps float64) *gen.LowerBoundGraph {
	d := int(math.Pow(float64(n), eps) / 4)
	if d < 3 {
		d = 3
	}
	k := int(math.Pow(float64(n), 1-2*eps))
	if k < 1 {
		k = 1
	}
	x := n/k - 1 - (d + 1) - (d*d + 5*d)
	if x < 2 {
		x = 2
	}
	return gen.LowerBoundParams(k, d, x)
}

// TradeoffUpper regenerates E1. Part A sweeps the algorithm's ε on a fixed
// deep-path lower-bound instance, exhibiting the monotone tradeoff; part B
// fits the scaling exponent of b(n) against n^{1+ε} on matched instances;
// part C fits the scaling of r(n) under a reinforcement-heavy ε.
func TradeoffUpper(cfg Config) ([]*expstats.Table, error) {
	baseN := 3000
	sizes := []int{500, 1000, 2000}
	if cfg.Quick {
		baseN = 1200
		sizes = []int{300, 600, 1200}
	}

	// Part A: fixed instance, sweep algorithm ε.
	ta := expstats.NewTable("E1a: sweep of ε on a deep lower-bound instance (graph ε_c = 0.42)",
		"eps", "n", "|H|", "backup b", "reinforced r", "n^{1+eps}", "n^{1-eps}")
	lb := gen.LowerBound(baseN, 0.42)
	n := float64(lb.G.N())
	epsGrid := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	sts, err := epsSweep(lb.G, lb.S, epsGrid)
	if err != nil {
		return nil, err
	}
	for i, st := range sts {
		eps := epsGrid[i]
		ta.AddRow(eps, lb.G.N(), st.Size(), st.BackupCount(), st.ReinforcedCount(),
			math.Pow(n, 1+eps), math.Pow(n, 1-eps))
	}

	// Part B: matched instances, scaling of b(n).
	tb := expstats.NewTable("E1b: scaling of b(n) on matched instances (expect slope ≈ 1+ε)",
		"eps", "n", "backup b", "reinforced r", "fitted b-exponent")
	for _, eps := range []float64{0.2, 0.3, 0.4} {
		var xs, ys []float64
		var rows [][4]float64
		for _, sz := range sizes {
			lb := gen.LowerBound(sz, eps)
			st := must(core.Build(lb.G, lb.S, eps, core.Options{}))
			xs = append(xs, float64(lb.G.N()))
			ys = append(ys, float64(st.BackupCount()))
			rows = append(rows, [4]float64{eps, float64(lb.G.N()), float64(st.BackupCount()), float64(st.ReinforcedCount())})
		}
		fit, err := expstats.FitPower(xs, ys)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			tb.AddRow(r[0], int(r[1]), int(r[2]), int(r[3]), fit.Exp)
		}
	}

	// Part C: the r(n) axis. On a matched instance the n^{1+ε} backup
	// volume is forced unless the ≈ n^{1−ε}/4 costly edges Π are reinforced
	// (Thm 5.1); reinforcing exactly Π collapses the backup set to
	// near-linear, and the reinforcement demand |Π| scales as n^{1−ε}.
	tc := expstats.NewTable("E1c: scaling of the reinforcement demand r(n) on matched instances (slope → 1−ε as n grows; finite sizes clamp d)",
		"eps", "n", "r (Π reinforced)", "predicted k(d-1)", "b with r", "b with r=0", "fitted r-exponent")
	for _, eps := range []float64{0.3, 0.35, 0.4} {
		var xs, ys []float64
		type row struct {
			n, r, pred, bWith, bWithout int
		}
		var rows []row
		for _, sz := range sizes {
			lb := lowerBoundDeep(sz, eps)
			var costly []graph.EdgeID
			for _, pe := range lb.PiEdges {
				costly = append(costly, pe.ID)
			}
			withR, err := core.BuildReinforcing(lb.G, lb.S, costly)
			if err != nil {
				return nil, err
			}
			withoutR := must(core.Build(lb.G, lb.S, eps, core.Options{}))
			xs = append(xs, float64(lb.G.N()))
			ys = append(ys, float64(withR.ReinforcedCount()))
			rows = append(rows, row{lb.G.N(), withR.ReinforcedCount(), lb.K * (lb.D - 1),
				withR.BackupCount(), withoutR.BackupCount()})
		}
		exp := math.NaN()
		if fit, err := expstats.FitPower(xs, ys); err == nil {
			exp = fit.Exp
		}
		for _, r := range rows {
			tc.AddRow(eps, r.n, r.r, r.pred, r.bWith, r.bWithout, exp)
		}
	}
	return []*expstats.Table{ta, tb, tc}, nil
}

// BaselineN32 regenerates E2: baseline FT-BFS sizes on an adversarial
// family (slope → 3/2) against a sparse random family (slope ≈ 1).
func BaselineN32(cfg Config) ([]*expstats.Table, error) {
	sizes := []int{500, 1000, 2000, 4000}
	if cfg.Quick {
		sizes = []int{300, 600, 1200}
	}
	t := expstats.NewTable("E2: baseline FT-BFS size |E(H)| ([14]: Θ(n^{3/2}) worst case)",
		"family", "n", "m", "|H|", "fitted exponent")
	for _, fam := range []string{"lower-bound(0.48)", "gnp(sparse)"} {
		var xs, ys []float64
		var rows [][3]int
		for _, sz := range sizes {
			var g *graph.Graph
			var s int
			switch fam {
			case "lower-bound(0.48)":
				lb := gen.LowerBound(sz, 0.48)
				g, s = lb.G, lb.S
			default:
				g, s = gen.GNPConnected(sz, 4/float64(sz), int64(sz)), 0
			}
			st := must(core.Build(g, s, 1, core.Options{}))
			xs = append(xs, float64(g.N()))
			ys = append(ys, float64(st.Size()))
			rows = append(rows, [3]int{g.N(), g.M(), st.Size()})
		}
		fit, err := expstats.FitPower(xs, ys)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			t.AddRow(fam, r[0], r[1], r[2], fit.Exp)
		}
	}
	return []*expstats.Table{t}, nil
}

// LowerBoundExp regenerates E3: on the Theorem 5.1 instances, any structure
// reinforcing at most ⌊n^{1−ε}/6⌋ edges must keep every fan of the
// unreinforced costly edges (Claim 5.3); the built structures exhibit the
// forced Ω(n^{1+ε}) backup volume.
func LowerBoundExp(cfg Config) ([]*expstats.Table, error) {
	baseN := 2500
	if cfg.Quick {
		baseN = 900
	}
	t := expstats.NewTable("E3: single-source lower bound (Thm 5.1)",
		"eps", "n", "m", "costly |Π|", "allowed r=⌊n^{1-eps}/6⌋", "built b", "built r",
		"forced fans present", "b ≥ (|Π|-r)·|X|")
	for _, eps := range []float64{0.15, 0.25, 0.35} {
		lb := gen.LowerBound(baseN, eps)
		n := float64(lb.G.N())
		allowedR := int(math.Pow(n, 1-eps) / 6)
		st := must(core.Build(lb.G, lb.S, eps, core.Options{}))
		// Claim 5.3: every costly edge not reinforced must have its full
		// fan inside H.
		ok := 0
		for _, pe := range lb.PiEdges {
			if st.Reinforced.Contains(pe.ID) {
				continue
			}
			full := true
			for _, id := range lb.Fan(pe) {
				if !st.Edges.Contains(id) {
					full = false
					break
				}
			}
			if full {
				ok++
			}
		}
		unreinforced := 0
		for _, pe := range lb.PiEdges {
			if !st.Reinforced.Contains(pe.ID) {
				unreinforced++
			}
		}
		forced := unreinforced * len(lb.X[0])
		t.AddRow(eps, lb.G.N(), lb.G.M(), len(lb.PiEdges), allowedR,
			st.BackupCount(), st.ReinforcedCount(),
			fmt.Sprintf("%d/%d", ok, unreinforced),
			st.BackupCount() >= forced)
	}
	return []*expstats.Table{t}, nil
}

// MBFSLowerBound regenerates E4: size scaling of ε FT-MBFS structures on
// the Theorem 5.4 instances as the number of sources grows.
func MBFSLowerBound(cfg Config) ([]*expstats.Table, error) {
	baseN := 1500
	if cfg.Quick {
		baseN = 600
	}
	t := expstats.NewTable("E4: multi-source lower bound (Thm 5.4), ε = 0.25",
		"K sources", "n", "m", "|H|", "backup b", "reinforced r", "biclique edges")
	for _, K := range []int{1, 2, 4} {
		lb := gen.MultiLowerBound(baseN, K, 0.25)
		ms, err := core.BuildMulti(lb.G, lb.Sources, 0.25, core.Options{})
		if err != nil {
			return nil, err
		}
		biclique := 0
		for j := range lb.X {
			biclique += len(lb.X[j]) * K * lb.D * 1
		}
		t.AddRow(K, lb.G.N(), lb.G.M(), ms.Size(), ms.BackupCount(), ms.ReinforcedCount(), biclique)
	}
	return []*expstats.Table{t}, nil
}

// CostCurve regenerates E5: the cost-minimising ε grows with log(R/B), as
// the paper's corollary ε* = Θ(log(R/B)/log n) predicts.
func CostCurve(cfg Config) ([]*expstats.Table, error) {
	baseN := 2000
	if cfg.Quick {
		baseN = 800
	}
	lb := gen.LowerBound(baseN, 0.42)
	grid := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 1}
	// build once per ε (one batched sweep), reuse across ratios
	type pt struct {
		eps  float64
		b, r int
	}
	var pts []pt
	sts, err := epsSweep(lb.G, lb.S, grid)
	if err != nil {
		return nil, err
	}
	for i, st := range sts {
		pts = append(pts, pt{grid[i], st.BackupCount(), st.ReinforcedCount()})
	}
	t := expstats.NewTable("E5: cost-minimising ε vs price ratio R/B",
		"R/B", "best eps (measured)", "predicted eps", "best cost", "b at best", "r at best")
	for _, ratio := range []float64{1, 4, 16, 64, 256, 1024, 4096} {
		best := 0
		bestCost := math.Inf(1)
		for i, p := range pts {
			c := float64(p.b) + ratio*float64(p.r)
			if c < bestCost {
				bestCost = c
				best = i
			}
		}
		t.AddRow(ratio, pts[best].eps, core.PredictedOptimalEps(lb.G.N(), 1, ratio),
			bestCost, pts[best].b, pts[best].r)
	}
	return []*expstats.Table{t}, nil
}

// CliqueExample regenerates E6: the introduction's motivating example — a
// source tied to a clique by one bridge. One reinforced edge plus a sparse
// backup set beats both all-backup and all-reinforced deployments.
func CliqueExample(cfg Config) ([]*expstats.Table, error) {
	n := 60
	if cfg.Quick {
		n = 30
	}
	g := gen.CliqueChain(n)
	t := expstats.NewTable(fmt.Sprintf("E6: clique example (n=%d, m=%d), prices B=1, R=20", n, g.M()),
		"strategy", "|H|", "backup b", "reinforced r", "cost")
	t.AddRow("conservative: buy all of G as backup+bridge reinforced", g.M(), g.M()-1, 1, float64(g.M()-1)+20)
	grid := []float64{0, 0.3, 1}
	sts, err := epsSweep(g, 0, grid)
	if err != nil {
		return nil, err
	}
	for i, st := range sts {
		t.AddRow(fmt.Sprintf("ε=%.1f (%s)", grid[i], st.Stats.Algorithm),
			st.Size(), st.BackupCount(), st.ReinforcedCount(), st.Cost(1, 20))
	}
	return []*expstats.Table{t}, nil
}

// Decomposition regenerates E7: Fact 3.3 recursion depth and the Fact 4.1
// per-vertex bounds, compared against log₂ n.
func Decomposition(cfg Config) ([]*expstats.Table, error) {
	sizes := []int{500, 2000, 8000}
	if cfg.Quick {
		sizes = []int{300, 1200}
	}
	t := expstats.NewTable("E7: tree-decomposition statistics (Fact 3.3, Fact 4.1)",
		"family", "n", "paths", "max level", "max paths on π(s,v)", "max glue on π(s,v)", "log2 n")
	for _, sz := range sizes {
		for _, fam := range []string{"random-tree", "gnp", "lower-bound"} {
			var g *graph.Graph
			var s int
			switch fam {
			case "random-tree":
				g, s = gen.RandomTree(sz, int64(sz)), 0
			case "gnp":
				g, s = gen.GNPConnected(sz, 3/float64(sz), int64(sz)), 0
			default:
				lb := gen.LowerBound(sz, 0.3)
				g, s = lb.G, lb.S
			}
			td := tree.Build(g, bfs.From(g, s))
			maxSegs, maxGlue := 0, 0
			for v := int32(0); v < int32(g.N()); v++ {
				if td.Depth[v] < 0 {
					continue
				}
				if k := len(td.SegmentsTo(v)); k > maxSegs {
					maxSegs = k
				}
				if k := len(td.GlueEdgesOn(v)); k > maxGlue {
					maxGlue = k
				}
			}
			t.AddRow(fam, g.N(), len(td.Paths), td.MaxLevel, maxSegs, maxGlue,
				math.Log2(float64(g.N())))
		}
	}
	return []*expstats.Table{t}, nil
}

// Interference regenerates E8: the census of uncovered pairs, their split
// into the (≁)-interfering set I1 vs the (∼)-set I2, and the per-iteration
// type A/B/C classification of Phase S1.
func Interference(cfg Config) ([]*expstats.Table, error) {
	baseN := 1500
	if cfg.Quick {
		baseN = 600
	}
	t := expstats.NewTable("E8: interference census at ε = 0.25",
		"family", "n", "uncovered |UP|", "|I1| (≁)", "|I2| (∼)", "iter-1 A/B/C", "S1 added", "S2 added")
	for _, fam := range []string{"lower-bound(0.42)", "gnp", "grid"} {
		var g *graph.Graph
		var s int
		switch fam {
		case "lower-bound(0.42)":
			lb := gen.LowerBound(baseN, 0.42)
			g, s = lb.G, lb.S
		case "gnp":
			g, s = gen.GNPConnected(baseN, 6/float64(baseN), 11), 0
		default:
			side := int(math.Sqrt(float64(baseN)))
			g, s = gen.Grid(side, side), 0
		}
		st := must(core.Build(g, s, 0.25, core.Options{}))
		abc := "-"
		if len(st.Stats.TypeACounts) > 0 {
			abc = fmt.Sprintf("%d/%d/%d", st.Stats.TypeACounts[0], st.Stats.TypeBCounts[0], st.Stats.TypeCCounts[0])
		}
		t.AddRow(fam, g.N(), st.Stats.UncoveredPairs, st.Stats.I1Size, st.Stats.I2Size,
			abc, st.Stats.S1Added, st.Stats.S2GlueAdded+st.Stats.S2Added)
	}
	return []*expstats.Table{t}, nil
}

// PhaseAblation regenerates E9: what each phase buys, against the greedy
// heuristic and the baseline.
func PhaseAblation(cfg Config) ([]*expstats.Table, error) {
	baseN := 1500
	if cfg.Quick {
		baseN = 600
	}
	lb := gen.LowerBound(baseN, 0.42)
	t := expstats.NewTable(fmt.Sprintf("E9: ablation at ε = 0.15 on lower-bound(0.42), n=%d", lb.G.N()),
		"variant", "|H|", "backup b", "reinforced r", "cost B=1,R=100")
	variants := []struct {
		name string
		opt  core.Options
		eps  float64
	}{
		{"full (S1+S2)", core.Options{}, 0.15},
		{"no S1", core.Options{SkipPhase1: true}, 0.15},
		{"no S2", core.Options{SkipPhase2: true}, 0.15},
		{"greedy", core.Options{Algorithm: core.Greedy}, 0.15},
		{"baseline [14]", core.Options{Algorithm: core.Baseline}, 1},
		{"tree (ε=0)", core.Options{Algorithm: core.Tree}, 0},
	}
	reqs := make([]batch.Request, len(variants))
	for i, v := range variants {
		reqs[i] = batch.Request{Eps: v.eps, Opt: v.opt}
	}
	sts, err := sweep(lb.G, lb.S, reqs)
	if err != nil {
		return nil, err
	}
	for i, st := range sts {
		t.AddRow(variants[i].name, st.Size(), st.BackupCount(), st.ReinforcedCount(), st.Cost(1, 100))
	}
	return []*expstats.Table{t}, nil
}

// VerifyExact regenerates E10: exhaustive Definition 2.1 verification of
// every algorithm on every family (the correctness table).
func VerifyExact(cfg Config) ([]*expstats.Table, error) {
	t := expstats.NewTable("E10: exhaustive verification (violations must be 0)",
		"family", "n", "eps", "algorithm", "violations")
	fams := []struct {
		name string
		g    *graph.Graph
		s    int
	}{
		{"cycle", gen.Cycle(40), 0},
		{"grid", gen.Grid(8, 8), 0},
		{"gnp", gen.GNPConnected(80, 0.06, 5), 0},
		{"lower-bound", gen.LowerBoundParams(3, 4, 6).G, 0},
		{"cliquechain", gen.CliqueChain(24), 0},
	}
	if !cfg.Quick {
		fams = append(fams,
			struct {
				name string
				g    *graph.Graph
				s    int
			}{"random-dense", gen.RandomConnected(120, 500, 7), 0})
	}
	for _, f := range fams {
		grid := []float64{0, 0.2, 0.4, 1}
		sts, err := epsSweep(f.g, f.s, grid)
		if err != nil {
			return nil, err
		}
		for i, st := range sts {
			viol := core.Verify(st.G, st.S, st.Edges, st.Reinforced, core.ModelEdge, 0)
			t.AddRow(f.name, f.g.N(), grid[i], st.Stats.Algorithm, len(viol))
		}
	}
	return []*expstats.Table{t}, nil
}

// VertexFT regenerates E11 — the vertex-failure extension: structure sizes
// and verification across families, with the edge baseline for comparison.
func VertexFT(cfg Config) ([]*expstats.Table, error) {
	scale := 1
	if cfg.Quick {
		scale = 2
	}
	t := expstats.NewTable("E11: vertex fault-tolerant BFS structures (extension; companion of [16])",
		"family", "n", "m", "vertex |H|", "edge baseline |H|", "violations")
	fams := []struct {
		name string
		g    *graph.Graph
	}{
		{"torus", gen.Torus(12/scale, 12/scale)},
		{"gnp", gen.GNPConnected(400/scale, 8/float64(400/scale), 3)},
		{"lower-bound", gen.LowerBoundParams(3, 4, 24/scale).G},
		{"hypercube", gen.Hypercube(8 - scale)},
	}
	for _, f := range fams {
		h, err := core.BuildVertex(f.g, 0)
		if err != nil {
			return nil, err
		}
		est := must(core.Build(f.g, 0, 1, core.Options{}))
		viol := core.Verify(f.g, 0, h, nil, core.ModelVertex, 0)
		t.AddRow(f.name, f.g.N(), f.g.M(), h.Len(), est.Size(), len(viol))
	}
	return []*expstats.Table{t}, nil
}
