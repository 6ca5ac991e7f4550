// Package core implements the paper's contribution: constructions of
// (b, r) fault-tolerant BFS structures mixing fault-prone backup edges with
// fail-proof reinforced edges.
//
// The main entry point is Build, which dispatches on ε (Theorem 3.1):
// ε = 0 reinforces the BFS tree itself; ε ≥ 1/2 falls back to the classical
// FT-BFS construction of Parter–Peleg (ESA'13, reference [14] of the paper)
// with O(n^{3/2}) edges; ε ∈ (0, 1/2) runs the three-phase algorithm of
// Section 3 (replacement-path preprocessing S0, interference-driven
// iterations S1, tree-decomposition covering S2) and reinforces exactly the
// edges left last-unprotected, which the analysis bounds by
// O(1/ε · n^{1-ε} · log n).
package core

import (
	"fmt"

	"ftbfs/internal/graph"
)

// Structure is a (b, r) FT-BFS structure: a subgraph H ⊆ G whose edges are
// split into backup (fault-prone) edges and reinforced (fail-proof) edges.
// The contract (Definition 2.1): for every edge e ∉ Reinforced and every
// vertex v, dist(s, v, H\{e}) ≤ dist(s, v, G\{e}).
type Structure struct {
	G   *graph.Graph
	S   int
	Eps float64

	Edges      *graph.EdgeSet // E(H), including reinforced edges; a built H contains T0
	Reinforced *graph.EdgeSet // E' ⊆ E(H); always a subset of the T0 edges

	Stats BuildStats
}

// BuildStats records what each phase of the construction did; experiments
// E8/E9 report these.
type BuildStats struct {
	Algorithm string // "tree", "baseline", "epsilon", "greedy"

	UncoveredPairs int // |UP| after Phase S0
	I1Size, I2Size int // (≁)-interfering pairs vs the initial (∼)-set
	K              int // number of S1 iterations
	Threshold      int // ⌈n^ε⌉

	S1Added       int   // last edges added during Phase S1
	S1Leftover    int   // pairs remaining after K iterations (Lemma 4.10 says 0)
	TypeACounts   []int // |PA_i| per iteration
	TypeBCounts   []int // |PB_i| per iteration
	TypeCCounts   []int // |PC_i| per iteration
	S2GlueAdded   int   // last edges added in Sub-Phase S2.1
	S2Added       int   // last edges added in Sub-Phases S2.2–S2.3
	BaselineAdded int   // last edges added by the baseline construction
}

// BackupCount returns b(n) = |E(H)| − |E'| (the paper counts every
// non-reinforced structure edge as backup).
func (st *Structure) BackupCount() int { return st.Edges.Len() - st.Reinforced.Len() }

// ReinforcedCount returns r(n) = |E'|.
func (st *Structure) ReinforcedCount() int { return st.Reinforced.Len() }

// Size returns |E(H)|.
func (st *Structure) Size() int { return st.Edges.Len() }

// Cost returns the total deployment cost B·b(n) + R·r(n) of the structure
// under per-edge prices B (backup) and R (reinforced).
func (st *Structure) Cost(backupPrice, reinforcePrice float64) float64 {
	return backupPrice*float64(st.BackupCount()) + reinforcePrice*float64(st.ReinforcedCount())
}

// String implements fmt.Stringer.
func (st *Structure) String() string {
	return fmt.Sprintf("ftbfs{n=%d m=%d |H|=%d backup=%d reinforced=%d ε=%.3g alg=%s}",
		st.G.N(), st.G.M(), st.Size(), st.BackupCount(), st.ReinforcedCount(), st.Eps, st.Stats.Algorithm)
}
