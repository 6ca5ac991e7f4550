package graph

import "fmt"

// Validate performs internal-consistency checks on a frozen graph: the CSR
// rows are well formed, each sorted by neighbour with no neighbour twice,
// every arc agrees with the edge list, the rows hold 2m arcs (so each edge
// once from each endpoint), and the edge list has dense ids, no duplicates
// and no self loops. It is used by tests and by the decoder's fuzz-ish
// inputs; algorithm packages assume a valid graph.
func Validate(g *Graph) error {
	c := g.csr
	if c == nil {
		return fmt.Errorf("graph: not frozen")
	}
	if _, err := NewCSR(int(g.n), c.RowStart, c.Arcs); err != nil {
		return err
	}
	if len(c.Arcs) != 2*len(g.edges) {
		return fmt.Errorf("graph: %d arcs for m=%d", len(c.Arcs), len(g.edges))
	}
	for u := range g.n {
		prev := int32(-1)
		for _, a := range c.ArcsOf(u) {
			if a.To <= prev {
				return fmt.Errorf("graph: row %d not sorted by neighbour at %d", u, a.To)
			}
			prev = a.To
			if int(a.ID) >= len(g.edges) {
				return fmt.Errorf("graph: vertex %d references unknown edge id %d", u, a.ID)
			}
			if e := g.edges[a.ID]; e != (Edge{u, a.To}) && e != (Edge{a.To, u}) {
				return fmt.Errorf("graph: arc %d->%d disagrees with edge %v (id %d)", u, a.To, e, a.ID)
			}
		}
	}
	seen := make(map[int64]bool, len(g.edges))
	for id, e := range g.edges {
		if e.U == e.V {
			return fmt.Errorf("graph: self-loop at %d", e.U)
		}
		k := g.key(e.U, e.V)
		if seen[k] {
			return fmt.Errorf("graph: duplicate edge %v (id %d)", e, id)
		}
		seen[k] = true
		if got, ok := g.lookup[k]; !ok || got != EdgeID(id) {
			return fmt.Errorf("graph: lookup table inconsistent for edge %v (id %d)", e, id)
		}
	}
	return nil
}
