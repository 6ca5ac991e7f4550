package graph

import "fmt"

// CSR is a flat compressed-sparse-row adjacency view: the arcs leaving
// vertex u occupy Arcs[RowStart[u]:RowStart[u+1]], each carrying the
// neighbour and the undirected EdgeID. The two packed slices make a BFS over
// the view a linear scan with no pointer chasing and no per-arc membership
// tests — the whole point of materializing a subgraph H ⊆ G once instead of
// filtering G's adjacency on every query.
//
// A frozen graph keeps its own adjacency as a CSR (Graph.CSR), with every
// row sorted by neighbour id; a subgraph's CSR (SubgraphCSR) keeps that
// order, so the canonical min-index parent rule of package bfs applies to
// it exactly as it does to the graph it was extracted from. A CSR is
// immutable and safe for concurrent use.
type CSR struct {
	n        int32
	RowStart []int32 // len n+1; monotone
	Arcs     []Arc   // packed rows

	// Gen is the generation of the graph the view was extracted from. A
	// query plan's CSR carries it so a serving layer can assert it never
	// mixes views from different generations of one lineage; CSRs assembled
	// from deserialized rows (NewCSR) start at 0 and are stamped by the
	// decoder that knows the record's generation.
	Gen uint64
}

// N returns the number of vertices.
func (c *CSR) N() int { return int(c.n) }

// NumArcs returns the number of directed arcs (twice the undirected edges).
func (c *CSR) NumArcs() int { return len(c.Arcs) }

// ArcsOf returns the arcs leaving u. The slice aliases the CSR's packed
// storage and must be treated as read-only.
func (c *CSR) ArcsOf(u int32) []Arc {
	return c.Arcs[c.RowStart[u]:c.RowStart[u+1]]
}

// Degree returns the number of arcs leaving u.
func (c *CSR) Degree(u int32) int {
	return int(c.RowStart[u+1] - c.RowStart[u])
}

// NewCSR assembles a CSR from deserialized rows, validating the shape a
// search relies on: RowStart must be a monotone prefix-sum array covering
// exactly the arcs, and every arc must name an in-range neighbour. Arc
// EdgeIDs are only range-checked here; binding them to a particular edge set
// is the caller's (the slab decoder cross-checks them against H). The slices
// are adopted, not copied.
func NewCSR(n int, rowStart []int32, arcs []Arc) (*CSR, error) {
	if n < 0 || len(rowStart) != n+1 {
		return nil, fmt.Errorf("graph: CSR row array has %d entries for %d vertices", len(rowStart), n)
	}
	if rowStart[0] != 0 || int(rowStart[n]) != len(arcs) {
		return nil, fmt.Errorf("graph: CSR rows cover [%d,%d) of %d arcs", rowStart[0], rowStart[n], len(arcs))
	}
	for u := 0; u < n; u++ {
		if rowStart[u] > rowStart[u+1] {
			return nil, fmt.Errorf("graph: CSR row %d is not monotone", u)
		}
	}
	for i, a := range arcs {
		if a.To < 0 || int(a.To) >= n || a.ID < 0 {
			return nil, fmt.Errorf("graph: CSR arc %d → %d (edge %d) out of range", i, a.To, a.ID)
		}
	}
	return &CSR{n: int32(n), RowStart: rowStart, Arcs: arcs}, nil
}

// SubgraphCSR extracts the subgraph with edge set allowed as its own CSR:
// only arcs whose EdgeID is in allowed are packed, in the graph's row
// order. The extraction is O(n+m) once; afterwards a search over the
// subgraph touches only its own arcs, with zero membership tests. The graph
// must be frozen.
func (g *Graph) SubgraphCSR(allowed *EdgeSet) *CSR {
	full := g.CSR()
	c := &CSR{n: g.n, RowStart: make([]int32, g.n+1), Gen: g.gen}
	for u := range g.n {
		c.RowStart[u+1] = c.RowStart[u]
		for _, a := range full.ArcsOf(u) {
			if allowed.Contains(a.ID) {
				c.RowStart[u+1]++
			}
		}
	}
	c.Arcs = make([]Arc, 0, c.RowStart[g.n])
	for _, a := range full.Arcs {
		if allowed.Contains(a.ID) {
			c.Arcs = append(c.Arcs, a)
		}
	}
	return c
}
