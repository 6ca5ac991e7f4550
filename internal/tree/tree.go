// Package tree provides rooted-tree machinery over the canonical BFS tree
// T0: ancestor tests, least common ancestors, and the recursive path
// decomposition of Fact 3.3 (Sleator–Tarjan heavy paths in the variant of
// Baswana–Khanna) that Phase S2 of the construction is built on.
package tree

import (
	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
)

// Tree is a rooted tree with precomputed ancestor structure and the Fact 3.3
// decomposition. All arrays are indexed by vertex; vertices unreachable from
// the root have Depth -1 and PathOf -1.
type Tree struct {
	Root       int32
	Parent     []int32
	ParentEdge []graph.EdgeID
	Depth      []int32
	Size       []int32 // subtree sizes (0 for unreachable)

	tin, tout []int32 // preorder intervals for O(1) ancestor tests

	// Dense preorder from the same tour: the subtree of v is the
	// contiguous slice PreOrder[PreIndex[v] : PreIndex[v]+Size[v]], which is
	// what lets a failure repair enumerate exactly the affected vertices.
	PreOrder []int32 // reachable vertices in DFS preorder
	PreIndex []int32 // preorder position of v; -1 for unreachable vertices

	// Fact 3.3 decomposition TD. Every reachable vertex lies on exactly one
	// path; Paths[i] lists its vertices from shallowest (head) to deepest.
	Paths     [][]int32
	PathOf    []int32 // index into Paths
	PosOf     []int32 // position of v within Paths[PathOf[v]]
	PathLevel []int32 // recursion level of each path (root path = 0)
	MaxLevel  int32

	// GlueEdges is E⁻(TD): the tree edges e(ψ,i) connecting a hanging
	// subtree's head to its parent path. PathEdges (E⁺(TD)) is the
	// complement within the tree edges.
	GlueEdges []graph.EdgeID

	children [][]int32
	order    []int32 // reachable vertices, top-down
}

// Build constructs the rooted-tree structure from a canonical BFS tree,
// including the Fact 3.3 decomposition.
func Build(g *graph.Graph, bt *bfs.Tree) *Tree {
	t := BuildAncestry(g.N(), bt)
	t.buildChildren(g.N())
	t.decompose(g)
	return t
}

// buildChildren materializes per-vertex child lists (needed only by the
// decomposition and Children); the lists share one flat slab, appended into
// pre-capped slices, so the whole thing costs three allocations.
func (t *Tree) buildChildren(n int) {
	cnt := make([]int32, n)
	total := 0
	for _, v := range t.order {
		if p := t.Parent[v]; p >= 0 {
			cnt[p]++
			total++
		}
	}
	flat := make([]int32, total)
	t.children = make([][]int32, n)
	off := 0
	for v := 0; v < n; v++ {
		t.children[v] = flat[off : off : off+int(cnt[v])]
		off += int(cnt[v])
	}
	for _, v := range t.order {
		if p := t.Parent[v]; p >= 0 {
			t.children[p] = append(t.children[p], v)
		}
	}
}

// BuildAncestry constructs only the ancestry machinery — subtree sizes,
// preorder intervals, preorder subtree enumeration — without the Fact 3.3
// decomposition. Query plans use it: they classify failures and enumerate
// subtrees but never walk decomposition paths, and skipping decompose saves
// an O(n) pass plus its allocations on every structure build and store
// load-through. Paths/PathOf/PosOf/PathLevel/GlueEdges/children stay empty;
// LCA, SegmentsTo, GlueEdgesOn and Children must not be called on an
// ancestry-only tree.
func BuildAncestry(n int, bt *bfs.Tree) *Tree {
	t := &Tree{
		Root:       bt.Source,
		Parent:     bt.Parent,
		ParentEdge: bt.ParentEdge,
		Depth:      bt.Dist,
		order:      bt.Order,
	}
	// The four n-sized ancestry arrays share one allocation (and one zeroing
	// pass); this constructor runs on every store load-through, so constant
	// factors here are serving-path latency.
	slab := make([]int32, 4*n)
	t.Size = slab[0*n : 1*n : 1*n]
	t.tin = slab[1*n : 2*n : 2*n]
	t.tout = slab[2*n : 3*n : 3*n]
	t.PreIndex = slab[3*n : 4*n : 4*n]
	for i := 0; i < n; i++ {
		t.tin[i] = -1
		t.PreIndex[i] = -1
	}
	// Subtree sizes bottom-up over the BFS order (children follow parents).
	for i := len(t.order) - 1; i >= 0; i-- {
		v := t.order[i]
		t.Size[v]++
		if p := t.Parent[v]; p >= 0 {
			t.Size[p] += t.Size[v]
		}
	}
	t.preorderTour()
	return t
}

// preorderTour assigns each reachable vertex its dense preorder position —
// parent first, siblings in BFS order — and the half-open interval
// [tin, tout) = [PreIndex[v], PreIndex[v]+Size[v]) that makes IsAncestor and
// InSubtree O(1). One top-down pass over the BFS order replaces an explicit
// DFS: tout[v] doubles as v's child cursor (the next free slot inside v's
// interval), starting just past v itself and ending — after the last child
// claims its block — at exactly tin[v]+Size[v], the interval end.
func (t *Tree) preorderTour() {
	if len(t.order) == 0 {
		return
	}
	t.PreOrder = make([]int32, len(t.order))
	t.tin[t.Root] = 0
	t.tout[t.Root] = 1
	for _, v := range t.order {
		if p := t.Parent[v]; p >= 0 {
			t.tin[v] = t.tout[p]
			t.tout[p] += t.Size[v]
			t.tout[v] = t.tin[v] + 1
		}
		t.PreIndex[v] = t.tin[v]
		t.PreOrder[t.tin[v]] = v
	}
}

// decompose builds the Fact 3.3 decomposition: the root path descends to the
// child with the largest subtree until a leaf; every subtree hanging off it
// has at most half the vertices and is decomposed recursively (implemented
// as a worklist). Glue edges connect each hanging head to its parent path.
func (t *Tree) decompose(g *graph.Graph) {
	n := g.N()
	t.PathOf = make([]int32, n)
	t.PosOf = make([]int32, n)
	for i := 0; i < n; i++ {
		t.PathOf[i] = -1
	}
	if len(t.order) == 0 {
		return
	}
	type job struct {
		head  int32
		level int32
	}
	work := []job{{head: t.Root, level: 0}}
	for len(work) > 0 {
		j := work[len(work)-1]
		work = work[:len(work)-1]
		if j.level > t.MaxLevel {
			t.MaxLevel = j.level
		}
		idx := int32(len(t.Paths))
		var path []int32
		v := j.head
		for {
			t.PathOf[v] = idx
			t.PosOf[v] = int32(len(path))
			path = append(path, v)
			// heaviest child continues the path
			var heavy int32 = -1
			for _, c := range t.children[v] {
				if heavy == -1 || t.Size[c] > t.Size[heavy] {
					heavy = c
				}
			}
			if heavy == -1 {
				break
			}
			for _, c := range t.children[v] {
				if c != heavy {
					t.GlueEdges = append(t.GlueEdges, t.ParentEdge[c])
					work = append(work, job{head: c, level: j.level + 1})
				}
			}
			v = heavy
		}
		t.Paths = append(t.Paths, path)
		t.PathLevel = append(t.PathLevel, j.level)
	}
}

// Subtree returns the vertices of v's subtree (v first, then descendants in
// DFS preorder) as a slice of the tree's preorder array — zero-copy, so
// repeated failure repairs enumerate a subtree without allocating. The slice
// is owned by the tree and must not be modified; it is empty for vertices
// unreachable from the root.
func (t *Tree) Subtree(v int32) []int32 {
	p := t.PreIndex[v]
	if p < 0 {
		return nil
	}
	return t.PreOrder[p : p+t.Size[v]]
}

// InSubtree reports whether v lies in the subtree rooted at c (including
// v == c), in O(1) via the preorder interval. It is one unsigned compare of
// v's offset into c's interval, with no branch to mispredict on the
// serving path: an unreachable c has Size 0, and an unreachable v's
// negative offset wraps to a huge one.
func (t *Tree) InSubtree(v, c int32) bool {
	return uint32(t.PreIndex[v]-t.PreIndex[c]) < uint32(t.Size[c])
}

// IsAncestor reports whether u is an ancestor of v (or u == v).
func (t *Tree) IsAncestor(u, v int32) bool {
	if t.tin[u] < 0 || t.tin[v] < 0 {
		return false
	}
	return t.tin[u] <= t.tin[v] && t.tout[v] <= t.tout[u]
}

// LCA returns the least common ancestor of u and v via path-decomposition
// ascent, or -1 if either vertex is unreachable.
func (t *Tree) LCA(u, v int32) int32 {
	if t.Depth[u] < 0 || t.Depth[v] < 0 {
		return -1
	}
	for t.PathOf[u] != t.PathOf[v] {
		hu := t.Paths[t.PathOf[u]][0]
		hv := t.Paths[t.PathOf[v]][0]
		// ascend from the path whose head is deeper
		if t.Depth[hu] >= t.Depth[hv] {
			u = t.Parent[hu]
		} else {
			v = t.Parent[hv]
		}
	}
	if t.Depth[u] <= t.Depth[v] {
		return u
	}
	return v
}

// ChildEndpoint returns the deeper endpoint of tree edge id (the paper
// directs tree edges away from the root).
func (t *Tree) ChildEndpoint(g *graph.Graph, id graph.EdgeID) int32 {
	e := g.EdgeByID(id)
	if t.Depth[e.U] > t.Depth[e.V] {
		return e.U
	}
	return e.V
}

// Related implements the paper's e ∼ e' relation on tree edges, addressed by
// their child endpoints a and b: e ∼ e' iff one child endpoint is an
// ancestor-or-self of the other, i.e. both edges lie on a common root-leaf
// path π(s,·).
func (t *Tree) Related(a, b int32) bool {
	return t.IsAncestor(a, b) || t.IsAncestor(b, a)
}

// OnRootPath reports whether the tree edge with child endpoint c lies on
// π(root, v).
func (t *Tree) OnRootPath(c, v int32) bool {
	return t.IsAncestor(c, v)
}

// Segment is a maximal intersection of π(root,v) with one decomposition
// path: vertices Paths[Path][0..BottomPos] are all ancestors of v.
type Segment struct {
	Path      int32 // index into Paths
	BottomPos int32 // deepest position of the intersection within the path
}

// SegmentsTo returns the decomposition-path segments of π(root,v) ordered
// from v upward to the root. Fact 4.1(b) bounds their number by O(log n).
func (t *Tree) SegmentsTo(v int32) []Segment {
	return t.AppendSegmentsTo(nil, v)
}

// AppendSegmentsTo is SegmentsTo appending to segs, so repeated queries can
// recycle one buffer.
func (t *Tree) AppendSegmentsTo(segs []Segment, v int32) []Segment {
	if t.Depth[v] < 0 {
		return segs
	}
	for v >= 0 {
		p := t.PathOf[v]
		segs = append(segs, Segment{Path: p, BottomPos: t.PosOf[v]})
		v = t.Parent[t.Paths[p][0]]
	}
	return segs
}

// GlueEdgesOn returns the glue edges (E⁻(TD)) lying on π(root,v), i.e. the
// parent edges of every segment head below the root. Fact 4.1(a) bounds
// their number by O(log n).
func (t *Tree) GlueEdgesOn(v int32) []graph.EdgeID {
	var out []graph.EdgeID
	for v >= 0 {
		head := t.Paths[t.PathOf[v]][0]
		if t.Parent[head] < 0 {
			break
		}
		out = append(out, t.ParentEdge[head])
		v = t.Parent[head]
	}
	return out
}

// Children returns v's children (owned by the tree; do not modify).
func (t *Tree) Children(v int32) []int32 { return t.children[v] }

// Order returns the reachable vertices in top-down (BFS) order.
func (t *Tree) Order() []int32 { return t.order }
