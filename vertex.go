package ftbfs

import (
	"ftbfs/internal/core"
	"ftbfs/internal/vertexft"
)

// VertexStructure is a built vertex fault-tolerant BFS structure: a
// subgraph H ⊆ G with dist(s, v, H \ {w}) ≤ dist(s, v, G \ {w}) for every
// vertex v and every failed vertex w ≠ s — the companion problem of the
// paper's edge-failure construction (Parter DISC'14; Parter–Peleg ESA'13).
// It embeds the serving core Structure embeds — Source, Size, Contains,
// Edges, Dist, Plan, Oracle, OraclePool and Verify are one code path for
// both models — and its oracles answer vertex failures. Like Structure, it is
// immutable once built: the read-only query methods are safe for
// concurrent use, and OraclePool serves concurrent vertex-failure queries.
type VertexStructure struct {
	serving
	st *vertexft.Structure
}

// newVertexStructure wraps a built vertex structure in its serving core.
func newVertexStructure(st *vertexft.Structure) *VertexStructure {
	return &VertexStructure{serving: serving{g: st.G, src: st.S, h: st.Edges, model: core.ModelVertex}, st: st}
}

// BuildVertex constructs the vertex FT-BFS structure for (g, source). The
// graph is frozen by this call. Unlike Build there is no ε: the vertex
// construction has no reinforcement dimension — every edge is fault-prone
// and every non-source vertex may fail.
func BuildVertex(g *Graph, source int) (*VertexStructure, error) {
	g.g.Freeze()
	st, err := vertexft.Build(g.g, source)
	if err != nil {
		return nil, err
	}
	return newVertexStructure(st), nil
}

// Pairs returns the number of ⟨v, w⟩ pairs that purchased a replacement
// last edge during the build (equivalently |H| − |T0|).
func (s *VertexStructure) Pairs() int { return s.st.Pairs }
