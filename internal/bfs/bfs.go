// Package bfs implements breadth-first search primitives with deterministic
// canonical tie-breaking. The paper (Section 2) assumes a positive weight
// assignment W that makes the shortest path between every pair of vertices
// unique in every subgraph G' ⊆ G. The min-index parent rule realises W:
// among all neighbours u of v with dist(s,u) = dist(s,v)-1, the canonical
// parent is the smallest-id u. The resulting canonical paths are unique and
// prefix-closed in every (sub)graph, which is exactly what the
// constructions of Sections 3-4 rely on (Claims 4.4-4.6).
//
// There is one canonical search, FromCSR, over a CSR adjacency: a frozen
// graph's own (From) or a subgraph's such as a structure H. Around it sit
// the restricted search of a failure scenario (Scratch.DistancesAvoiding)
// and the subtree-local repair after one failure (Repair).
package bfs

import (
	"ftbfs/internal/graph"
)

// Unreachable is the distance value used for vertices not reachable from the
// source.
const Unreachable int32 = -1

// Tree is the canonical BFS tree T0(s): distances, min-index parents and the
// tree-edge ids. It corresponds to the paper's T0 = ⋃_v π(s,v).
type Tree struct {
	Source     int32
	Dist       []int32
	Parent     []int32        // canonical parent; -1 for the source and unreachable vertices
	ParentEdge []graph.EdgeID // id of {Parent[v], v}; NoEdge where Parent is -1
	Order      []int32        // reachable vertices in increasing distance (BFS) order
}

// From runs a BFS from s over the frozen graph g and returns the canonical
// tree: FromCSR over g's own adjacency.
func From(g *graph.Graph, s int) *Tree { return FromCSR(g.CSR(), s) }

// FromCSR runs a canonical BFS from s over a CSR adjacency — a frozen
// graph's own (From) or a subgraph's (graph.SubgraphCSR) — and returns the
// tree. Parents are assigned by the min-index rule, not by discovery
// order, so the result is independent of queue internals.
func FromCSR(c *graph.CSR, s int) *Tree {
	n := c.N()
	t := &Tree{
		Source:     int32(s),
		Dist:       make([]int32, n),
		Parent:     make([]int32, n),
		ParentEdge: make([]graph.EdgeID, n),
	}
	for i := 0; i < n; i++ {
		t.Dist[i] = Unreachable
		t.Parent[i] = -1
		t.ParentEdge[i] = graph.NoEdge
	}
	queue := make([]int32, 0, n)
	t.Dist[s] = 0
	queue = append(queue, int32(s))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, a := range c.ArcsOf(u) {
			if t.Dist[a.To] == Unreachable {
				t.Dist[a.To] = t.Dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	t.Order = queue
	// Canonical min-index parents: CSR rows are sorted by neighbour, so the
	// first neighbour one level up is the smallest-id one.
	for _, v := range queue {
		if v == int32(s) {
			continue
		}
		for _, a := range c.ArcsOf(v) {
			if t.Dist[a.To] == t.Dist[v]-1 {
				t.Parent[v] = a.To
				t.ParentEdge[v] = a.ID
				break
			}
		}
	}
	return t
}

// EdgeSet returns the set of tree-edge ids (the edges of T0).
func (t *Tree) EdgeSet(m int) *graph.EdgeSet {
	s := graph.NewEdgeSet(m)
	for v := range t.ParentEdge {
		if t.ParentEdge[v] != graph.NoEdge {
			s.Add(t.ParentEdge[v])
		}
	}
	return s
}
