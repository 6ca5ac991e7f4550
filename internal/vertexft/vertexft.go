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
// by the vertex analogue of Observation 2.2. This package only builds:
// core.Verify checks the contract, under core.ModelVertex, with the same
// loop that checks the edge model.
package vertexft

import (
	"fmt"

	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
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

// Workspace holds the reusable scratch of Build: the subtree-repair
// scratch, the per-failure distance vector, the packed children adjacency
// of T0, the descendant walk stack and the failed subtree. Mirroring
// core.Workspace, one workspace serves any number of builds (batch
// pre-building every source of a graph, the store's build-through) without
// re-allocating the O(n) state per call. A Workspace is not safe for
// concurrent use.
type Workspace struct {
	n      int
	repair *bfs.Repair
	dist   []int32
	stack  []int32
	sub    []int32

	// Children of T0 in CSR form: the children of v occupy
	// childList[childStart[v]:childStart[v+1]], filled in BFS order so the
	// descendant walk is deterministic. Packing replaces the O(n) per-vertex
	// slices a tree.Tree would allocate per build.
	childStart []int32 // len n+1
	childList  []int32 // len n
}

// NewWorkspace returns an empty workspace; buffers are sized lazily by the
// first build that uses it.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the workspace for graphs with n vertices.
func (ws *Workspace) ensure(n int) {
	if ws.n == n && ws.repair != nil {
		return
	}
	ws.n = n
	ws.repair = bfs.NewRepair(n)
	ws.dist = make([]int32, n)
	ws.childStart = make([]int32, n+1)
	ws.childList = make([]int32, n)
}

// fillChildren packs T0's children lists into the workspace CSR. Children
// appear in BFS order within each row — the same order a tree.Tree would
// list them, so the descendant walk of BuildWith is order-identical.
func (ws *Workspace) fillChildren(bt *bfs.Tree) {
	for i := range ws.childStart {
		ws.childStart[i] = 0
	}
	for _, v := range bt.Order {
		if p := bt.Parent[v]; p >= 0 {
			ws.childStart[p+1]++
		}
	}
	for i := 1; i < len(ws.childStart); i++ {
		ws.childStart[i] += ws.childStart[i-1]
	}
	// Fill in BFS order, bumping a per-row cursor stored in childStart,
	// then shift the (now end-of-row) offsets back to row starts — the
	// classic in-place counting sort, no temporary cursor array.
	for _, v := range bt.Order {
		if p := bt.Parent[v]; p >= 0 {
			ws.childList[ws.childStart[p]] = v
			ws.childStart[p]++
		}
	}
	// childStart[v] now holds the END of row v; shift back to starts.
	for i := len(ws.childStart) - 1; i > 0; i-- {
		ws.childStart[i] = ws.childStart[i-1]
	}
	ws.childStart[0] = 0
}

// children returns the packed T0 children of v (BFS order).
func (ws *Workspace) children(v int32) []int32 {
	return ws.childList[ws.childStart[v]:ws.childStart[v+1]]
}

// Build constructs the vertex FT-BFS structure for (g, s) with a private
// workspace; use BuildWith to recycle one across calls.
func Build(g *graph.Graph, s int) (*Structure, error) {
	return BuildWith(g, s, NewWorkspace())
}

// BuildWith constructs the vertex FT-BFS structure for (g, s). For every
// non-source vertex w with children in T0, failing w changes distances
// only among its strict descendants, so it repairs just that subtree
// (bfs.Repair with w banned): O(Σ_{v below w} deg(v)) per failed vertex.
// Then, for every descendant v that stays reachable, it ensures some edge
// (u,v) with dist(s,u,G\{w})+1 = dist(s,v,G\{w}) is present in H — a tree
// edge, an edge purchased for an earlier pair, or failing both the
// canonical min-index replacement. The result is deterministic and
// identical to Build; ws only recycles scratch buffers across calls.
func BuildWith(g *graph.Graph, s int, ws *Workspace) (*Structure, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("vertexft: graph must be frozen")
	}
	if s < 0 || s >= g.N() {
		return nil, fmt.Errorf("vertexft: source %d out of range", s)
	}
	bt := bfs.From(g, s)
	h := bt.EdgeSet(g.M())
	st := &Structure{G: g, S: s, Edges: h}

	ws.ensure(g.N())
	ws.fillChildren(bt)
	csr := g.SubgraphCSR(nil)
	dist := ws.dist
	copy(dist, bt.Dist) // intact outside the subtree being repaired
	stack, sub := ws.stack[:0], ws.sub[:0]
	for w := 0; w < g.N(); w++ {
		if w == s || bt.Dist[w] < 0 || len(ws.children(int32(w))) == 0 {
			continue // failing a leaf of T0 affects nobody's tree path
		}
		// the strict descendants of w, in walk order
		sub = sub[:0]
		stack = append(stack[:0], ws.children(int32(w))...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = append(stack[:len(stack)-1], ws.children(v)...)
			sub = append(sub, v)
		}
		ws.repair.Run(csr, bt.Dist, sub, graph.NoEdge, int32(w))
		for _, v := range sub {
			dist[v] = ws.repair.Dist(v)
		}
		for _, v := range sub {
			target := dist[v]
			if target == bfs.Unreachable {
				continue // w disconnects v: vacuous
			}
			// Already last-protected by an edge of H? Consulting H — not just
			// the tree edges — is what keeps the structure sparse: a
			// replacement edge purchased for an earlier failed vertex (or an
			// earlier descendant of this one) protects every later pair it
			// happens to satisfy, so no second edge is bought for it.
			cand := int32(-1)
			protected := false
			for _, a := range g.Neighbors(int(v)) {
				if a.To == int32(w) || dist[a.To] == bfs.Unreachable || dist[a.To]+1 != target {
					continue
				}
				if h.Contains(a.ID) {
					protected = true
					break
				}
				if cand == -1 {
					cand = a.To // adjacency sorted ⇒ first is min-index
				}
			}
			if protected {
				continue
			}
			if cand == -1 {
				return nil, fmt.Errorf("vertexft: no replacement last edge for ⟨v=%d, w=%d⟩", v, w)
			}
			st.Pairs++
			h.Add(g.EdgeIDOf(int(cand), int(v)))
		}
		for _, v := range sub {
			dist[v] = bt.Dist[v]
		}
	}
	ws.stack, ws.sub = stack, sub
	return st, nil
}

// Size returns |E(H)|.
func (st *Structure) Size() int { return st.Edges.Len() }
