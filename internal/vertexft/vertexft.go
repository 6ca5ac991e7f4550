// Package vertexft extends the repository to single VERTEX failures: a
// vertex fault-tolerant BFS structure H ⊆ G satisfies
//
//	dist(s, v, H \ {w}) ≤ dist(s, v, G \ {w})
//
// for every vertex v and every failed vertex w ≠ s. The paper treats edge
// failures; vertex faults are the natural companion problem it cites
// (Parter, DISC'14 [16]; Parter–Peleg ESA'13 handles both). The
// construction mirrors the edge baseline: the BFS tree plus the last edge
// of a replacement path for every pair ⟨v, w⟩ with w on π(s,v), justified
// by the vertex analogue of Observation 2.2. This package is only that
// protection loop: it runs on the vertex half of the failure sweep that
// replacement.Engine shares between both failure models, with the engine's
// one last-edge probe, and core.Verify checks the contract, under
// core.ModelVertex, with the same loop that checks the edge model.
package vertexft

import (
	"fmt"

	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// Structure is a vertex fault-tolerant BFS structure.
type Structure struct {
	G     *graph.Graph
	S     int
	Edges *graph.EdgeSet

	// Pairs counts the ⟨v,w⟩ pairs that required adding a new replacement
	// last edge — pairs already protected by a tree edge or by an edge a
	// previous pair purchased are not counted, so Pairs == |H| − |T0|.
	Pairs int
}

// Build constructs the vertex FT-BFS structure for (g, s) on a fresh
// replacement engine; use BuildWith to recycle one across sources.
func Build(g *graph.Graph, s int) (*Structure, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("vertexft: graph must be frozen")
	}
	if s < 0 || s >= g.N() {
		return nil, fmt.Errorf("vertexft: source %d out of range", s)
	}
	return BuildWith(replacement.NewEngine(g, s))
}

// BuildWith constructs the vertex FT-BFS structure for the engine's (G, S).
// The engine's vertex sweep fails every non-source vertex w with children
// in T0, repairing only w's strict descendants. For every descendant v
// that stays reachable, BuildWith then ensures some edge (u,v) with
// dist(s,u,G\{w})+1 = dist(s,v,G\{w}) is present in H — a tree edge, an
// edge purchased for an earlier pair, or failing both the canonical
// min-index replacement. The result depends only on (G, S), not on the
// engine's history: Reset recycles its scratch across sources.
//
// The order of w's descendants does not matter. An edge (u,v) bought for
// ⟨v, w⟩ has dist(s,u,G\{w})+1 = dist(s,v,G\{w}), so it is the last edge
// of no other descendant under the same failure (that would need u as the
// deeper endpoint); H and Pairs after w are the same in any visiting order.
func BuildWith(en *replacement.Engine) (*Structure, error) {
	h := en.TreeEdges.Clone()
	st := &Structure{G: en.G, S: en.S, Edges: h}
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
					err = fmt.Errorf("vertexft: no replacement last edge for ⟨v=%d, w=%d⟩", v, w)
				}
				return
			}
			st.Pairs++
			h.Add(last)
		}
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Size returns |E(H)|.
func (st *Structure) Size() int { return st.Edges.Len() }
