package ftbfs

import (
	"ftbfs/internal/core"
	"ftbfs/internal/graph"
)

// VertexStructure is a built vertex fault-tolerant BFS structure: a
// subgraph H ⊆ G with dist(s, v, H \ {w}) ≤ dist(s, v, G \ {w}) for every
// vertex v and every failed vertex w ≠ s — the companion problem of the
// paper's edge-failure construction (Parter DISC'14; Parter–Peleg ESA'13).
// It is the serving core Structure embeds and nothing more — Source, Size,
// Contains, Edges, Dist, Plan, Oracle, OraclePool and Verify are one code
// path for both models — and its oracles answer vertex failures. Like
// Structure, it is immutable once built: the read-only query methods are
// safe for concurrent use, and OraclePool serves concurrent vertex-failure
// queries.
type VertexStructure struct {
	serving
}

// newVertexStructure wraps the vertex structure H of (g, src) in its
// serving core.
func newVertexStructure(g *graph.Graph, src int, h *graph.EdgeSet) *VertexStructure {
	return &VertexStructure{serving{g: g, src: src, h: h, model: core.ModelVertex}}
}

// BuildVertex constructs the vertex FT-BFS structure for (g, source). The
// graph is frozen by this call. Unlike Build there is no ε: the vertex
// construction has no reinforcement dimension — every edge is fault-prone
// and every non-source vertex may fail.
func BuildVertex(g *Graph, source int) (*VertexStructure, error) {
	g.g.Freeze()
	h, err := core.BuildVertex(g.g, source)
	if err != nil {
		return nil, err
	}
	return newVertexStructure(g.g, source, h), nil
}

// Pairs returns the number of ⟨v, w⟩ pairs that purchased a replacement
// last edge during the build: |H| − |T0|, with T0 read as the plan's tree
// (built on first use), one parent edge per reached vertex but the source.
func (s *VertexStructure) Pairs() int { return s.h.Len() - (len(s.Plan().t.Order()) - 1) }
