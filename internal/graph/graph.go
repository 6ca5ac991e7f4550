// Package graph implements the undirected-graph substrate used by every
// other package in this repository: an edge list with stable edge
// identifiers, one packed adjacency (the CSR that Freeze builds from it),
// and helpers for the edge-subset bookkeeping that fault-tolerant BFS
// constructions need.
//
// Vertices are dense integers 0..N()-1. Every undirected edge {u,v} has a
// unique EdgeID assigned at insertion time; all higher-level structures
// (BFS trees, replacement paths, FT-BFS structures) refer to edges by id so
// that "the same edge" is unambiguous across subgraphs.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// EdgeID identifies an undirected edge within a Graph. IDs are dense:
// 0..M()-1 in insertion order.
type EdgeID int32

// NoEdge is returned by lookups when the requested edge does not exist.
const NoEdge EdgeID = -1

// Edge is an undirected edge. U < V is NOT guaranteed; use Canonical to
// normalize. Both orientations denote the same EdgeID.
type Edge struct {
	U, V int32
}

// Canonical returns the edge with endpoints ordered so that U <= V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Other returns the endpoint of e that is not x. It panics if x is not an
// endpoint of e.
func (e Edge) Other(x int32) int32 {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", x, e))
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.U, e.V) }

// Arc is a directed view of an undirected edge as seen from one endpoint:
// To is the neighbour, ID is the undirected edge's identifier.
type Arc struct {
	To int32
	ID EdgeID
}

// Graph is an undirected multigraph-free graph with stable edge ids.
// The zero value is an empty graph with no vertices; use New.
//
// Graph is immutable after Freeze (all algorithm packages require a frozen
// graph); the builder API (AddEdge) may only be used before Freeze, and the
// adjacency (Neighbors, Degree, CSR) only after it.
type Graph struct {
	n      int32
	edges  []Edge
	lookup map[int64]EdgeID
	csr    *CSR // the adjacency, packed by Freeze; nil until then

	// Live-graph identity: a graph is a (lineage, generation) pair, not just
	// a fingerprint. gen counts mutations applied since the lineage's root;
	// lineage is the root's fingerprint and is stable across mutations (it is
	// what keys registries and the cluster ring, so every generation of one
	// graph routes to the same shards). fp is the content identity of THIS
	// generation — structural FNV for generation 0, incrementally mixed from
	// the parent's fp plus the mutation batch for later generations. All four
	// fields are set during single-threaded construction (Apply, Decode, or
	// Freeze) and never after, so concurrent readers need no synchronisation.
	gen     uint64
	lineage uint64
	fp      uint64
	fpSet   bool
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{
		n:      int32(n),
		lookup: make(map[int64]EdgeID),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return int(g.n) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.edges) }

// Generation returns how many mutation batches separate g from its lineage
// root. A graph built directly (New + AddEdge) is generation 0.
func (g *Graph) Generation() uint64 { return g.gen }

// Lineage returns the stable identity shared by every generation of this
// graph: the fingerprint of the generation-0 root. Registries and the
// cluster ring key on the lineage so mutations never move a graph between
// shards. For a generation-0 graph the lineage IS the fingerprint.
func (g *Graph) Lineage() uint64 {
	if g.gen == 0 && g.lineage == 0 {
		return g.Fingerprint()
	}
	return g.lineage
}

// setIdentity stamps the live-graph identity fields; it is only called from
// single-threaded construction paths (Apply, Decode) before the graph is
// shared.
func (g *Graph) setIdentity(gen, lineage, fp uint64) {
	g.gen, g.lineage, g.fp, g.fpSet = gen, lineage, fp, true
}

func (g *Graph) key(u, v int32) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// AddEdge inserts the undirected edge {u,v} and returns its id. Self-loops
// and duplicate edges are rejected with an error. AddEdge panics if called
// after Freeze.
func (g *Graph) AddEdge(u, v int) (EdgeID, error) {
	if g.csr != nil {
		panic("graph: AddEdge after Freeze")
	}
	if u == v {
		return NoEdge, fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if u < 0 || v < 0 || u >= int(g.n) || v >= int(g.n) {
		return NoEdge, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	uu, vv := int32(u), int32(v)
	k := g.key(uu, vv)
	if _, dup := g.lookup[k]; dup {
		return NoEdge, fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{uu, vv})
	g.lookup[k] = id
	// Content changed: any stamped identity is stale. The edited graph is a
	// fresh generation-0 root, not some generation of its source lineage.
	g.gen, g.lineage, g.fpSet = 0, 0, false
	return id, nil
}

// MustAddEdge is AddEdge that panics on error; intended for generators whose
// construction logic guarantees validity.
func (g *Graph) MustAddEdge(u, v int) EdgeID {
	id, err := g.AddEdge(u, v)
	if err != nil {
		panic(err)
	}
	return id
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= int(g.n) || v >= int(g.n) {
		return false
	}
	_, ok := g.lookup[g.key(int32(u), int32(v))]
	return ok
}

// EdgeIDOf returns the id of edge {u,v}, or NoEdge if absent.
func (g *Graph) EdgeIDOf(u, v int) EdgeID {
	if u < 0 || v < 0 || u >= int(g.n) || v >= int(g.n) {
		return NoEdge
	}
	id, ok := g.lookup[g.key(int32(u), int32(v))]
	if !ok {
		return NoEdge
	}
	return id
}

// EdgeByID returns the endpoints of the given edge id.
func (g *Graph) EdgeByID(id EdgeID) Edge {
	return g.edges[id]
}

// Neighbors returns the adjacency list of u as (neighbour, edge id) arcs,
// sorted by neighbour: u's row of CSR. The returned slice is owned by the
// graph and must not be modified. It panics before Freeze.
func (g *Graph) Neighbors(u int) []Arc { return g.CSR().ArcsOf(int32(u)) }

// Degree returns the degree of u. It panics before Freeze.
func (g *Graph) Degree(u int) int { return g.CSR().Degree(int32(u)) }

// CSR returns the graph's adjacency: one packed row per vertex, sorted by
// neighbour id (the order the canonical min-index BFS tie-breaking of
// package bfs relies on). It is the graph's own storage, not a copy, and
// is shared read-only by every caller. It panics before Freeze.
func (g *Graph) CSR() *CSR {
	if g.csr == nil {
		panic("graph: adjacency read before Freeze")
	}
	return g.csr
}

// Edges returns a copy of the edge list indexed by EdgeID.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// EdgesView returns the edge list indexed by EdgeID without copying. The
// slice is owned by the graph and MUST be treated as read-only; use Edges
// when the caller needs to retain or mutate the list. Hot paths that only
// iterate (fingerprinting, persistence) use this to stay allocation-free.
func (g *Graph) EdgesView() []Edge { return g.edges }

// Freeze packs the edge list into the graph's CSR adjacency, each row
// sorted by neighbour id (required for the canonical min-index BFS
// tie-breaking used throughout this repository), and marks the graph
// immutable. Freeze is idempotent.
func (g *Graph) Freeze() *Graph {
	if g.csr != nil {
		return g
	}
	c := &CSR{n: g.n, RowStart: make([]int32, g.n+1), Arcs: make([]Arc, 2*len(g.edges)), Gen: g.gen}
	for _, e := range g.edges {
		c.RowStart[e.U+1]++
		c.RowStart[e.V+1]++
	}
	for u := range g.n {
		c.RowStart[u+1] += c.RowStart[u]
	}
	next := slices.Clone(c.RowStart[:g.n]) // each row's first free slot
	for id, e := range g.edges {
		c.Arcs[next[e.U]] = Arc{To: e.V, ID: EdgeID(id)}
		c.Arcs[next[e.V]] = Arc{To: e.U, ID: EdgeID(id)}
		next[e.U]++
		next[e.V]++
	}
	for u := range g.n {
		slices.SortFunc(c.ArcsOf(u), func(a, b Arc) int { return cmp.Compare(a.To, b.To) })
	}
	g.csr = c
	if !g.fpSet {
		// Cache the structural fingerprint now, while construction is still
		// single-threaded; concurrent Fingerprint calls after Freeze then
		// read an immutable field instead of racing to write a cache.
		g.fp, g.fpSet = g.computeFingerprint(), true
	}
	return g
}

// Frozen reports whether Freeze has been called.
func (g *Graph) Frozen() bool { return g.csr != nil }

// Clone returns a deep, unfrozen copy of g. The copy keeps g's live-graph
// identity (generation, lineage, fingerprint) until it is edited; AddEdge
// resets an edited clone to a fresh generation-0 root.
func (g *Graph) Clone() *Graph {
	c := New(int(g.n))
	for id, e := range g.edges {
		c.edges = append(c.edges, e)
		c.lookup[c.key(e.U, e.V)] = EdgeID(id)
	}
	c.gen, c.lineage, c.fp, c.fpSet = g.gen, g.lineage, g.fp, g.fpSet
	return c
}

// String implements fmt.Stringer with a short summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.n, len(g.edges))
}
