package core

import (
	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// LastUnprotectedMulti computes, for each candidate structure H in hs, the
// set of T0 edges that are last-unprotected in H (Section 2 of the paper):
// edge e is v-last-unprotected when no replacement path P_{v,e} has its
// last edge in H, i.e. no H-edge (u,v) with dist(s,u,G\{e})+1 =
// dist(s,v,G\{e}) exists. By Observation 2.2, every last-protected edge is
// protected, so reinforcing exactly this set yields a valid (b,r) FT-BFS
// structure.
//
// Only T0 edges can ever be unprotected: failing a non-tree edge leaves
// T0 ⊆ H intact and dist(s,v,G\{e}) ≥ dist(s,v,G). All the structures share
// ONE failure sweep: the per-failure subtree repair — O(Σ_{v ∈ sub} deg(v))
// for a failed edge above the subtree sub — runs once, and only the
// O(deg(v)) last-edge probes run once per structure. Each set depends only
// on which pairs are protected, not on the order the sweep visits them in.
func LastUnprotectedMulti(en *replacement.Engine, hs []*graph.EdgeSet) []*graph.EdgeSet {
	outs := make([]*graph.EdgeSet, len(hs))
	for i := range outs {
		outs[i] = graph.NewEdgeSet(en.G.M())
	}
	en.ForEachFailure(func(e graph.EdgeID, child int32, sub, distE []int32) {
		for i, h := range hs {
			for _, v := range sub {
				if _, protected := en.LastEdgeIn(h, v, e, -1, distE); !protected {
					outs[i].Add(e)
					break
				}
			}
		}
	})
	return outs
}
