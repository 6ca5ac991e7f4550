package core

import "fmt"

// Algorithm selects the construction Build runs.
type Algorithm int

const (
	// Auto dispatches per Theorem 3.1: ε = 0 → Tree, ε ≥ ½ → Baseline,
	// otherwise Epsilon.
	Auto Algorithm = iota
	// Tree keeps only the BFS tree and reinforces its unprotected edges —
	// the ε = 0 extreme (≤ n−1 reinforced edges, no backup redundancy).
	Tree
	// Baseline is the classical FT-BFS construction of [14]: the last edges
	// of every new-ending replacement path, O(n^{3/2}) edges, no
	// reinforcement needed.
	Baseline
	// Epsilon is the paper's three-phase (b, r) construction for
	// ε ∈ (0, ½).
	Epsilon
	// Greedy is the heuristic comparator discussed in the paper's
	// discussion section: reinforce the costliest tree edges first.
	Greedy
)

// ParseAlgorithm is the inverse of Algorithm.String; the empty string means
// Auto.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "", "auto":
		return Auto, nil
	case "tree":
		return Tree, nil
	case "baseline":
		return Baseline, nil
	case "epsilon":
		return Epsilon, nil
	case "greedy":
		return Greedy, nil
	}
	return Auto, fmt.Errorf("core: unknown algorithm %q", s)
}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case Tree:
		return "tree"
	case Baseline:
		return "baseline"
	case Epsilon:
		return "epsilon"
	case Greedy:
		return "greedy"
	}
	return "unknown"
}

// Options tunes Build and each BuildGroup item: which construction runs and
// its ablations. The zero value is a sensible default.
type Options struct {
	Algorithm Algorithm

	// GreedyBudget caps the number of reinforced edges for the Greedy
	// algorithm; 0 means ⌈n^{1−ε}⌉.
	GreedyBudget int

	// SkipPhase1 / SkipPhase2 ablate the corresponding phase of the
	// Epsilon algorithm (experiment E9). The result is still a valid
	// structure — skipped protection shows up as extra reinforced edges.
	SkipPhase1 bool
	SkipPhase2 bool
}
