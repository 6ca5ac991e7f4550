package ftbfs

import (
	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
	"ftbfs/internal/tree"
)

// QueryPlan is the precomputed serving view of a structure of either failure
// model: H materialized as its own flat CSR adjacency, the intact distance
// vector, and the canonical BFS tree of H with preorder subtree intervals.
// Together they make failure queries sublinear in practice. A failure can
// change distances only inside one subtree of that tree — below a failed
// tree edge, or strictly below a failed tree vertex:
//
//   - a failure off the target's tree path — an edge that is not a tree
//     edge (including every edge outside H), a vertex that is a leaf or
//     unreachable in H, or any failure whose subtree the target is not in —
//     leaves the target's tree path intact, so the answer is an O(1) read
//     of the cached vector, no search at all.
//   - otherwise the repair search (bfs.Repair) seeds that subtree from the
//     intact-distance frontier crossing into it, with the failed edge or
//     every arc of the failed vertex banned, and relaxes only the subtree's
//     own H-arcs — O(Σ deg_H(subtree)) work instead of a full O(|E(H)|)
//     restricted BFS over G.
//
// Because H's BFS-tree parents follow the same canonical min-index rule as
// the reference search, every plan answer equals Oracle.DistAvoidingRef (or
// DistAvoidingVertexRef) exactly; the randomized differential tests assert
// this failure by failure.
//
// A QueryPlan is immutable and safe for concurrent use; the per-query
// repair scratch lives in the Oracle that uses the plan.
type QueryPlan struct {
	h         *graph.CSR // H's own adjacency; scans touch no non-H arc
	intact    []int32    // dist(s, ·) in the intact H, shared with the structure
	t         *tree.Tree // canonical BFS tree of H with subtree intervals
	edgeChild []int32    // EdgeID → deeper endpoint if a tree edge, else -1; nil in the vertex model
}

// VertexQueryPlan is the name the vertex model's plan was introduced under;
// both models share one QueryPlan.
type VertexQueryPlan = QueryPlan

// newPlan assembles the plan of H (adjacency h) from its canonical BFS tree
// bt. Only the edge model indexes tree edges by EdgeID.
func newPlan(g *graph.Graph, h *graph.CSR, intact []int32, bt *bfs.Tree, model int) *QueryPlan {
	p := &QueryPlan{h: h, intact: intact, t: tree.BuildAncestry(g.N(), bt)}
	if model == edgeModel {
		p.edgeChild = make([]int32, g.M())
		for id := range p.edgeChild {
			p.edgeChild[id] = -1
		}
		for _, v := range bt.Order {
			if id := bt.ParentEdge[v]; id != graph.NoEdge {
				p.edgeChild[id] = v
			}
		}
	}
	return p
}

// IsTreeEdge reports whether {u,v} is a tree edge of H's canonical BFS tree
// — the only kind of edge failure that forces a repair search; all others
// answer in O(1). A vertex plan serves no edge failures and answers false.
func (p *QueryPlan) IsTreeEdge(u, v int) bool {
	return p.treeChild(p.edgeID(u, v)) >= 0
}

// SubtreeSize returns the number of vertices a failure of {u,v} can affect:
// the size of the subtree below the edge for tree edges, 0 otherwise (and on
// a vertex plan). It is the work bound of the repair search and useful for
// admission control.
func (p *QueryPlan) SubtreeSize(u, v int) int {
	c := p.treeChild(p.edgeID(u, v))
	if c < 0 {
		return 0
	}
	return int(p.t.Size[c])
}

// OnTreePath reports whether the failed vertex w lies on the tree path
// π(s, v) of H's canonical BFS tree (strictly between s and v) — the only
// kind of vertex failure that forces a repair search for target v; all
// others answer in O(1).
func (p *QueryPlan) OnTreePath(w, v int) bool {
	if w < 0 || v < 0 || w >= p.h.N() || v >= p.h.N() || w == v {
		return false
	}
	return p.t.InSubtree(int32(v), int32(w)) && int32(w) != p.t.Root
}

// VertexSubtreeSize returns the number of vertices a failure of vertex w can
// affect: the strict descendants of w in H's BFS tree, 0 for leaves and
// vertices unreachable in H. It is the work bound of the repair search.
func (p *QueryPlan) VertexSubtreeSize(w int) int {
	if w < 0 || w >= p.h.N() || p.t.PreIndex[w] < 0 {
		return 0
	}
	return int(p.t.Size[w]) - 1
}

// edgeID resolves endpoints against the plan's CSR; the plan only ever sees
// failures validated by the oracle, but the exported classifiers accept raw
// endpoints.
func (p *QueryPlan) edgeID(u, v int) graph.EdgeID {
	// The CSR has no endpoint lookup; scan u's (H-only) row. Classification
	// is diagnostics, not a hot path.
	if u < 0 || v < 0 || u >= p.h.N() || v >= p.h.N() {
		return graph.NoEdge
	}
	for _, a := range p.h.ArcsOf(int32(u)) {
		if a.To == int32(v) {
			return a.ID
		}
	}
	return graph.NoEdge
}

// treeChild returns the deeper endpoint of a tree edge, or -1 when id is not
// a tree edge of H's BFS tree (including NoEdge, edges outside H and every
// edge of a vertex plan).
func (p *QueryPlan) treeChild(id graph.EdgeID) int32 {
	if id < 0 || int(id) >= len(p.edgeChild) {
		return -1
	}
	return p.edgeChild[id]
}

// failure is one validated simulated failure: a failed edge (id, with vertex
// -1) or a failed vertex (vertex, with id NoEdge).
type failure struct {
	id     graph.EdgeID
	vertex int32
}

// noFailure names no failure: the state of a repair scratch that holds none.
var noFailure = failure{id: graph.NoEdge, vertex: -1}

// dist answers dist(source, v) in H \ {f} using the plan's O(1) paths,
// falling back to r for the subtree repair. A failed tree edge can change
// the whole subtree below it; a failed vertex, which leaves the graph, its
// strict descendants. The caller owns r, guarantees repaired is the failure
// r last ran for (noFailure for none) and that v is not the failed vertex;
// dist returns the failure the scratch holds afterwards, so consecutive
// queries failing one edge or vertex — the shape of a grouped batch —
// repair once and serve every target from the same scratch. viaRepair
// reports whether the answer came out of the repair scratch (telemetry
// counts plan hits vs repairs without re-deriving the branch).
func (p *QueryPlan) dist(v int, f failure, r *bfs.Repair, repaired failure) (d int32, _ failure, viaRepair bool) {
	root, skip := f.vertex, 1
	if f.vertex < 0 {
		root, skip = p.edgeChild[f.id], 0
	}
	if root < 0 || !p.t.InSubtree(int32(v), root) {
		// Not a tree edge, or v hangs outside the subtree the failure can
		// change (v is not the failed vertex, so a failed leaf or a vertex
		// unreachable in H has no such v): v's tree path avoids the failure.
		return p.intact[v], repaired, false
	}
	if f != repaired {
		r.Run(p.h, p.intact, p.t.Subtree(root)[skip:], f.id, f.vertex)
		repaired = f
	}
	return r.Dist(int32(v)), repaired, true
}
