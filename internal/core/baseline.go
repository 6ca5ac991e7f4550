package core

import (
	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// backupEdges returns T0 plus the last edge of every uncovered pair whose
// failing edge is outside reinforced (nil: every pair), and how many edges
// that added to T0. With nil it is the classical FT-BFS construction of
// [14] (Parter–Peleg, ESA'13), which the paper uses both as the ε ≥ ½
// branch of Theorem 3.1 and as the comparison point of the tradeoff: H =
// T0 plus the last edge of every new-ending replacement path. Its analysis
// bounds |E(H)| by O(n^{3/2}); every edge ends up protected, so no
// reinforcement is needed (r = 0 up to degenerate tie-breaking residue,
// asserted empty in tests). Greedy and BuildReinforcing pass the edges
// they mean to reinforce and buy backup for the rest.
func backupEdges(en *replacement.Engine, reinforced *graph.EdgeSet) (*graph.EdgeSet, int) {
	h := en.TreeEdges.Clone()
	added := 0
	for _, p := range en.AllPairs() {
		if (reinforced == nil || !reinforced.Contains(p.Edge)) && h.Add(p.LastID) {
			added++
		}
	}
	return h, added
}
