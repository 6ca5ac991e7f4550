package core

import (
	"ftbfs/internal/graph"
)

// phase1Result captures what the K iterations of Phase S1 produced.
type phase1Result struct {
	CSets    [][]int32 // PC_1 … PC_K — the (∼)-sets deferred to Phase S2
	Added    int       // last edges inserted into H
	Leftover []int32   // pairs of PA∪PB still uncovered after K iterations
	ACounts  []int
	BCounts  []int
	CCounts  []int
}

// runPhase1 executes Phase S1 on the (≁)-set I1: K iterations, each
// classifying the working set into types A/B/C (Eqs. 2–3), deferring the C
// pairs and adding, per terminal v and per type J ∈ {A,B}, the ⌈n^ε⌉
// distinct last edges of the replacement paths protecting the deepest
// failing edges on π(s,v). Lemma 4.10 guarantees that after K = ⌈1/ε⌉+2
// iterations no type-A/B pair remains uncovered, so Leftover is empty; the
// caller covers any residue directly, which only keeps the structure valid.
func runPhase1(ix *pairIndex, H *graph.EdgeSet, i1 []int32, k, threshold int) phase1Result {
	var res phase1Result
	pi := i1
	for iter := 1; iter <= k && len(pi) > 0; iter++ {
		a, b, c := ix.classify(pi)
		res.ACounts = append(res.ACounts, len(a))
		res.BCounts = append(res.BCounts, len(b))
		res.CCounts = append(res.CCounts, len(c))
		res.CSets = append(res.CSets, c)

		for _, set := range [][]int32{a, b} {
			sorted := ix.groupByTerminal(set)
			for from, to := 0, 0; from < len(sorted); from = to {
				to = ix.runEnd(sorted, from)
				budget := threshold
				for _, p := range sorted[from:to] {
					last := ix.lastEdgeOf(p)
					if H.Contains(last) {
						continue // already covered — costs no budget
					}
					if budget == 0 {
						break // deeper pairs wait for the next iteration
					}
					H.Add(last)
					res.Added++
					budget--
				}
			}
		}
		// P_{i+1} = pairs of PA ∪ PB whose last edge is still missing.
		var next []int32
		for _, set := range [][]int32{a, b} {
			for _, p := range set {
				if !H.Contains(ix.lastEdgeOf(p)) {
					next = append(next, p)
				}
			}
		}
		pi = next
	}
	res.Leftover = pi
	return res
}
