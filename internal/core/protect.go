package core

import (
	"fmt"

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

// VertexEdges is the vertex construction, the companion problem of the
// paper's edge model (Parter, DISC'14): it returns H ⊆ G with
// dist(s, v, H \ {w}) ≤ dist(s, v, G \ {w}) for every vertex v and every
// failed vertex w ≠ s of the engine's (G, S). By the vertex analogue of
// Observation 2.2 it suffices that, for every descendant v of w in T0 that
// G \ {w} still reaches, H holds a last edge (u,v) with dist(s,u,G\{w})+1 =
// dist(s,v,G\{w}). So H is T0 plus, for each pair ⟨v, w⟩ whose probe finds
// none in H, the canonical min-index one: |H| − |T0| counts those pairs.
// The result depends only on (G, S) — Reset recycles the engine across
// sources — and not on the order of w's descendants: an edge bought for
// ⟨v, w⟩ has v as its deeper endpoint under w's failure, so it is the last
// edge of no other descendant.
func VertexEdges(en *replacement.Engine) (*graph.EdgeSet, error) {
	h := en.TreeEdges.Clone()
	var err error // the first pair with no last edge at all; none in a correct sweep
	en.ForEachVertexFailure(func(w int32, sub, distE []int32) {
		for _, v := range sub {
			// Probing H — not just the tree edges — is what keeps the
			// structure sparse: a replacement edge purchased for an earlier
			// failed vertex protects every later pair it happens to
			// satisfy, so no second edge is bought for it. A v that w
			// disconnects is vacuously protected.
			last, protected := en.LastEdgeIn(h, v, graph.NoEdge, w, distE)
			if protected {
				continue
			}
			if last == graph.NoEdge {
				if err == nil {
					err = fmt.Errorf("core: no replacement last edge for ⟨v=%d, w=%d⟩", v, w)
				}
				return
			}
			h.Add(last)
		}
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}
