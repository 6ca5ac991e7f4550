package core

import (
	"fmt"

	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
)

// Model says which kind of single failure a structure tolerates. It is the
// verifier's failure model, the failure-model word of a slab record and the
// model dimension of a store key; the values are part of the slab format
// and of every key's ring position, so they never change.
type Model uint32

const (
	// ModelEdge is the paper's model: any one non-reinforced edge fails.
	ModelEdge Model = 0
	// ModelVertex is the companion model: any one vertex other than the
	// source fails, and with it every edge it touches.
	ModelVertex Model = 1
)

// Violation is one breach of the FT-BFS contract found by Verify: with
// Failed down — an EdgeID in the edge model, a vertex in the vertex model —
// Vertex is farther from the source in H than in G.
type Violation struct {
	Model  Model
	Failed int32 // failed edge id (edge model) or failed vertex (vertex model)
	Vertex int32 // vertex whose distance regressed
	InH    int32 // dist(s, v, H \ {f}) (-1 = unreachable)
	InG    int32 // dist(s, v, G \ {f})
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Model == ModelVertex {
		return fmt.Sprintf("vertex %d failed, vertex %d: dist in H\\w = %d > dist in G\\w = %d",
			v.Failed, v.Vertex, v.InH, v.InG)
	}
	return fmt.Sprintf("edge %d, vertex %d: dist in H\\e = %d > dist in G\\e = %d",
		v.Failed, v.Vertex, v.InH, v.InG)
}

// Verify exhaustively checks the FT-BFS contract of H ⊆ G for source s
// (Definition 2.1): dist(s, v, H \ {f}) ≤ dist(s, v, G \ {f}) for every
// vertex v and every failure f of the model — each edge outside reinforced
// in the edge model, each vertex other than s in the vertex model
// (reinforced is ignored there and may be nil). limit caps the number of
// reported violations (0 = unlimited); g must be frozen.
//
// The failures to check are picked from G and H alone, never from what a
// structure or a record claims about itself. Let T be G's canonical BFS
// tree from s, the T0 every construction starts from. If T ⊆ H, a failure
// f off T leaves T inside H \ {f}, so dist(s, v, H \ {f}) ≤ dist(s, v, G) ≤
// dist(s, v, G \ {f}): only T's non-reinforced edges, or T's internal
// vertices other than s (failing a leaf w leaves T \ {w}, which still
// reaches every v ≠ w), can break the contract. Otherwise every failure is
// checked. Each failure costs two BFS passes, so Verify is for validation
// and experiments, not hot paths.
func Verify(g *graph.Graph, s int, h, reinforced *graph.EdgeSet, model Model, limit int) []Violation {
	n := g.N()
	t := bfs.From(g, s)
	tree := t.EdgeSet(g.M())
	onlyTree := tree.Minus(h).Len() == 0
	scG, scH := bfs.NewScratch(n), bfs.NewScratch(n)
	distG, distH := make([]int32, n), make([]int32, n)
	var out []Violation
	// check fails f under restriction r (H's edge set added for the search
	// in H) and reports whether the limit still leaves room for more.
	check := func(f int32, r bfs.Restriction) bool {
		scG.DistancesAvoiding(g, s, r, distG)
		r.AllowedEdges = h
		scH.DistancesAvoiding(g, s, r, distH)
		for v := int32(0); v < int32(n); v++ {
			if distG[v] == bfs.Unreachable {
				continue // v not required to be reachable (a failed vertex included)
			}
			if distH[v] == bfs.Unreachable || distH[v] > distG[v] {
				out = append(out, Violation{Model: model, Failed: f, Vertex: v, InH: distH[v], InG: distG[v]})
				if limit > 0 && len(out) >= limit {
					return false
				}
			}
		}
		return true
	}
	if model == ModelVertex {
		internal := graph.NewVertexSet(n)
		for _, p := range t.Parent {
			if p >= 0 {
				internal.Add(p)
			}
		}
		banned := graph.NewVertexSet(n)
		for w := int32(0); w < int32(n); w++ {
			if w == int32(s) || (onlyTree && !internal.Contains(w)) {
				continue
			}
			banned.Clear()
			banned.Add(w)
			if !check(w, bfs.Restriction{BannedEdge: graph.NoEdge, BannedVertices: banned}) {
				break
			}
		}
		return out
	}
	for e := graph.EdgeID(0); int(e) < g.M(); e++ {
		if (onlyTree && !tree.Contains(e)) || reinforced.Contains(e) {
			continue // reinforced edges never fail
		}
		if !check(int32(e), bfs.Restriction{BannedEdge: e}) {
			break
		}
	}
	return out
}

// CheckInvariants validates internal consistency of a structure: the
// reinforced set is contained in T0, G's canonical BFS tree from the source
// (recomputed here, never taken from the structure), T0 is contained in H,
// and every H edge exists in G.
func CheckInvariants(st *Structure) error {
	t0 := bfs.From(st.G, st.S).EdgeSet(st.G.M())
	if st.Reinforced.Minus(t0).Len() != 0 {
		return fmt.Errorf("core: reinforced edges outside T0")
	}
	if t0.Minus(st.Edges).Len() != 0 {
		return fmt.Errorf("core: T0 not contained in H")
	}
	bad := false
	st.Edges.ForEach(func(e graph.EdgeID) {
		if int(e) >= st.G.M() {
			bad = true
		}
	})
	if bad {
		return fmt.Errorf("core: H references edges outside G")
	}
	return nil
}
