package core

import (
	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// LastUnprotected computes the set of T0 edges that are last-unprotected in
// the candidate structure H (Section 2 of the paper): edge e is
// v-last-unprotected when no replacement path P_{v,e} has its last edge in
// H, i.e. no H-edge (u,v) with dist(s,u,G\{e})+1 = dist(s,v,G\{e}) exists.
// By Observation 2.2, every last-protected edge is protected, so
// reinforcing exactly this set yields a valid (b,r) FT-BFS structure.
//
// Only T0 edges can ever be unprotected: failing a non-tree edge leaves
// T0 ⊆ H intact and dist(s,v,G\{e}) ≥ dist(s,v,G).
func LastUnprotected(en *replacement.Engine, H *graph.EdgeSet) *graph.EdgeSet {
	out := graph.NewEdgeSet(en.G.M())
	en.ForEachFailure(func(e graph.EdgeID, child int32, sub, distE []int32) {
		for _, v := range sub {
			if !lastProtectedFor(en, H, v, e, distE) {
				out.Add(e)
				break
			}
		}
	})
	return out
}

// LastUnprotectedMulti computes LastUnprotected for several candidate
// structures in ONE failure sweep: the per-failure subtree repair —
// O(Σ_{v ∈ sub} deg(v)) for a failed edge above the subtree sub — is
// shared, and only the O(deg(v)) protection probes run once per structure.
// This is the batch orchestrator's reinforcement path: all ε values of one
// source are swept together. Each returned set is identical to
// LastUnprotected(en, hs[i]).
func LastUnprotectedMulti(en *replacement.Engine, hs []*graph.EdgeSet) []*graph.EdgeSet {
	outs := make([]*graph.EdgeSet, len(hs))
	for i := range outs {
		outs[i] = graph.NewEdgeSet(en.G.M())
	}
	en.ForEachFailure(func(e graph.EdgeID, child int32, sub, distE []int32) {
		for i, h := range hs {
			for _, v := range sub {
				if !lastProtectedFor(en, h, v, e, distE) {
					outs[i].Add(e)
					break
				}
			}
		}
	})
	return outs
}

// lastProtectedFor reports whether edge e is v-last-protected in H.
func lastProtectedFor(en *replacement.Engine, H *graph.EdgeSet, v int32, e graph.EdgeID, distE []int32) bool {
	target := distE[v]
	if target == bfs.Unreachable {
		return true // e disconnects v: vacuously protected
	}
	for _, a := range en.G.Neighbors(int(v)) {
		if a.ID == e || !H.Contains(a.ID) {
			continue
		}
		if distE[a.To] != bfs.Unreachable && distE[a.To]+1 == target {
			return true
		}
	}
	return false
}
