package core

import (
	"errors"
	"fmt"
	"math"

	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// Build constructs an ε FT-BFS structure for (g, s) per Theorem 3.1: a
// BuildGroup of one item on a fresh engine. The returned structure
// satisfies dist(s,v,H\{e}) ≤ dist(s,v,G\{e}) for every vertex v and every
// non-reinforced edge e (checkable with Verify).
func Build(g *graph.Graph, s int, eps float64, opt Options) (*Structure, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if err := ValidateBuild(eps, opt); err != nil {
		return nil, err
	}
	sts, err := BuildGroup(replacement.NewEngine(g, s), []GroupItem{{Eps: eps, Opt: opt}})
	if err != nil {
		return nil, err
	}
	return sts[0], nil
}

// BuildVertex returns E(H) of the vertex FT-BFS structure for (g, s),
// running VertexEdges on a fresh engine. The vertex model has no ε: every
// edge may fail, and so may every vertex but s.
func BuildVertex(g *graph.Graph, s int) (*graph.EdgeSet, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	return VertexEdges(replacement.NewEngine(g, s))
}

// checkSource refuses an unfrozen graph and a source outside it.
func checkSource(g *graph.Graph, s int) error {
	if !g.Frozen() {
		return errors.New("core: graph must be frozen")
	}
	if s < 0 || s >= g.N() {
		return fmt.Errorf("core: source %d out of range [0,%d)", s, g.N())
	}
	return nil
}

// sharedS0 caches the ε-independent products of Phase S0 across the builds
// of a same-source group: the pair interference index (which owns the
// Phase S2 scratch) and the I1/I2 interference split.
type sharedS0 struct {
	ix     *pairIndex
	i1, i2 []int32
}

func (sh *sharedS0) load(en *replacement.Engine) *pairIndex {
	if sh.ix == nil {
		sh.ix = buildPairIndex(en, en.AllPairs())
		sh.i1, sh.i2 = sh.ix.splitI1I2()
	}
	return sh.ix
}

// ValidateBuild reports whether (eps, opt) name a runnable construction,
// without building anything. Batch orchestrators use it to reject a bad
// request before any group starts paying for trees and replacement paths.
func ValidateBuild(eps float64, opt Options) error {
	_, err := resolveAlgorithm(eps, opt)
	return err
}

// resolveAlgorithm validates eps and applies the Theorem 3.1 automatic
// dispatch.
func resolveAlgorithm(eps float64, opt Options) (Algorithm, error) {
	if eps < 0 || eps > 1 {
		return Auto, fmt.Errorf("core: ε=%g outside [0,1]", eps)
	}
	alg := opt.Algorithm
	if alg == Auto {
		switch {
		case eps == 0:
			alg = Tree
		case eps >= 0.5:
			alg = Baseline
		default:
			alg = Epsilon
		}
	}
	if alg == Epsilon && eps <= 0 {
		return Auto, fmt.Errorf("core: the Epsilon algorithm needs ε > 0")
	}
	switch alg {
	case Tree, Baseline, Epsilon, Greedy:
		return alg, nil
	}
	return Auto, fmt.Errorf("core: unknown algorithm %v", opt.Algorithm)
}

// buildEdges runs the selected construction and returns the chosen edge set H
// (reinforcement not yet computed) together with the phase diagnostics.
func buildEdges(en *replacement.Engine, eps float64, opt Options, sh *sharedS0) (*graph.EdgeSet, BuildStats, error) {
	alg, err := resolveAlgorithm(eps, opt)
	if err != nil {
		return nil, BuildStats{}, err
	}
	switch alg {
	case Tree:
		// The ε = 0 extreme: H = T0, reinforcing every tree edge that is
		// last-unprotected in T0 (at most n−1 edges, no backup redundancy).
		return en.TreeEdges.Clone(), BuildStats{Algorithm: Tree.String()}, nil
	case Baseline:
		h, added := backupEdges(en, nil)
		return h, BuildStats{Algorithm: Baseline.String(), BaselineAdded: added}, nil
	case Greedy:
		h, stats := greedyEdges(en, eps, opt)
		return h, stats, nil
	default:
		h, stats := epsilonEdges(en, eps, opt, sh)
		return h, stats, nil
	}
}

// epsilonEdges runs the three-phase construction of Section 3.
func epsilonEdges(en *replacement.Engine, eps float64, opt Options, sh *sharedS0) (*graph.EdgeSet, BuildStats) {
	n := en.G.N()
	threshold := int(math.Ceil(math.Pow(float64(n), eps)))
	if threshold < 1 {
		threshold = 1
	}
	k := int(math.Ceil(1/eps)) + 2 // Eq. (4)

	h := en.TreeEdges.Clone()
	ix := sh.load(en)
	i1, i2 := sh.i1, sh.i2

	stats := BuildStats{
		Algorithm:      Epsilon.String(),
		UncoveredPairs: len(ix.pairs),
		I1Size:         len(i1),
		I2Size:         len(i2),
		K:              k,
		Threshold:      threshold,
	}

	sets := [][]int32{i2} // PC_0 = I2
	if !opt.SkipPhase1 {
		p1 := runPhase1(ix, h, i1, k, threshold)
		stats.S1Added = p1.Added
		stats.S1Leftover = len(p1.Leftover)
		stats.TypeACounts = p1.ACounts
		stats.TypeBCounts = p1.BCounts
		stats.TypeCCounts = p1.CCounts
		sets = append(sets, p1.CSets...)
		// Defensive fallback: Lemma 4.10 says Phase S1's leftover is
		// empty. Covering any residue with its pairs' last edges only
		// keeps the structure valid; it changes nothing when the lemma
		// holds.
		for _, p := range p1.Leftover {
			h.Add(ix.lastEdgeOf(p))
		}
	}
	if !opt.SkipPhase2 {
		stats.S2GlueAdded, stats.S2Added = runPhase2(ix, h, sets, threshold)
	}
	return h, stats
}
