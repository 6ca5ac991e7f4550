package core

import (
	"fmt"

	"ftbfs/internal/graph"
)

// MultiStructure is an ε FT-MBFS structure: the union of per-source
// structures, providing the FT-BFS guarantee simultaneously for every
// source in Sources (Section 5, multiple-sources setting).
type MultiStructure struct {
	G       *graph.Graph
	Sources []int
	Eps     float64

	Edges      *graph.EdgeSet
	Reinforced *graph.EdgeSet
	Per        []*Structure // the per-source structures (share edge ids)
}

// BuildMulti constructs an ε FT-MBFS structure by building one ε FT-BFS per
// source and taking the union of edges and reinforcements. The union is
// valid: each per-source guarantee only requires its own H_s ⊆ H, and
// enlarging H never increases distances; reinforcing a superset never
// weakens a guarantee.
func BuildMulti(g *graph.Graph, sources []int, eps float64, opt Options) (*MultiStructure, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: no sources")
	}
	ms := &MultiStructure{
		G:          g,
		Sources:    append([]int(nil), sources...),
		Eps:        eps,
		Edges:      graph.NewEdgeSet(g.M()),
		Reinforced: graph.NewEdgeSet(g.M()),
	}
	for _, s := range sources {
		st, err := Build(g, s, eps, opt)
		if err != nil {
			return nil, fmt.Errorf("core: source %d: %w", s, err)
		}
		ms.Per = append(ms.Per, st)
		ms.Edges.AddSet(st.Edges)
		ms.Reinforced.AddSet(st.Reinforced)
	}
	return ms, nil
}

// BackupCount returns b(n) for the union structure.
func (ms *MultiStructure) BackupCount() int { return ms.Edges.Len() - ms.Reinforced.Len() }

// ReinforcedCount returns r(n) for the union structure.
func (ms *MultiStructure) ReinforcedCount() int { return ms.Reinforced.Len() }

// Size returns |E(H)|.
func (ms *MultiStructure) Size() int { return ms.Edges.Len() }

// VerifyMulti checks the FT-MBFS contract for every source against the
// union edge set and union reinforcement set: each per-source guarantee must
// hold in the union H (which can only help) with every union-reinforced
// edge exempt from failing.
func VerifyMulti(ms *MultiStructure, limit int) []Violation {
	var out []Violation
	for _, s := range ms.Sources {
		out = append(out, Verify(ms.G, s, ms.Edges, ms.Reinforced, ModelEdge, limit)...)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}
