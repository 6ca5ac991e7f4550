// Package tree provides rooted-tree machinery over the canonical BFS tree
// T0: subtree sizes and preorder intervals (O(1) subtree membership, and
// zero-copy subtree enumeration for failure repairs), and the recursive
// path decomposition of Fact 3.3 (Sleator–Tarjan heavy paths in the
// variant of Baswana–Khanna) that Phase S2 of the construction is built on.
package tree

import (
	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
)

// Tree is a rooted tree with precomputed ancestor structure and, once
// Decompose has run, the Fact 3.3 decomposition. All arrays are indexed by
// vertex; vertices unreachable from the root have Depth -1 and PathOf -1.
type Tree struct {
	Root       int32
	Parent     []int32
	ParentEdge []graph.EdgeID
	Depth      []int32
	Size       []int32 // subtree sizes (0 for unreachable)

	// Dense preorder: the subtree of v is the contiguous slice
	// PreOrder[PreIndex[v] : PreIndex[v]+Size[v]], its preorder interval,
	// which makes subtree membership O(1) (InSubtree) and lets a failure
	// repair enumerate exactly the affected vertices (Subtree).
	PreOrder []int32 // reachable vertices in DFS preorder
	PreIndex []int32 // preorder position of v; -1 for unreachable vertices

	// Fact 3.3 decomposition TD, filled by Decompose. Every reachable
	// vertex lies on exactly one path; Paths[i] lists its vertices from
	// shallowest (head) to deepest.
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
// including the Fact 3.3 decomposition: BuildAncestry followed by
// Decompose.
func Build(g *graph.Graph, bt *bfs.Tree) *Tree {
	t := BuildAncestry(g.N(), bt)
	t.Decompose()
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
// decomposition. Query plans and the replacement-path engine use it: they
// classify failures and enumerate subtrees, and only Phase S2 of the
// construction walks decomposition paths, so the O(n) decomposition pass
// and its allocations are paid by the builds that read it (through
// Decompose) and not by every structure build and store load-through.
// Paths/PathOf/PosOf/PathLevel/GlueEdges/children stay empty until
// Decompose runs; SegmentsTo, GlueEdgesOn and Children must not be called
// before.
func BuildAncestry(n int, bt *bfs.Tree) *Tree {
	t := &Tree{
		Root:       bt.Source,
		Parent:     bt.Parent,
		ParentEdge: bt.ParentEdge,
		Depth:      bt.Dist,
		order:      bt.Order,
	}
	// The two n-sized ancestry arrays share one allocation (and one zeroing
	// pass); this constructor runs on every store load-through, so constant
	// factors here are serving-path latency.
	slab := make([]int32, 2*n)
	t.Size = slab[:n:n]
	t.PreIndex = slab[n:]
	for i := range t.PreIndex {
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
// parent first, siblings in BFS order — so that v's subtree is the interval
// [PreIndex[v], PreIndex[v]+Size[v]). One top-down pass over the BFS order
// replaces an explicit DFS: while it runs, PreIndex[v] is v's child cursor
// (the next free slot inside v's interval), starting just past v itself
// and ending, after the last child claims its block, at the interval end
// PreIndex[v]+Size[v]. A last pass subtracts Size to leave the start.
func (t *Tree) preorderTour() {
	if len(t.order) == 0 {
		return
	}
	t.PreOrder = make([]int32, len(t.order))
	t.PreOrder[0] = t.Root
	t.PreIndex[t.Root] = 1
	for _, v := range t.order {
		if p := t.Parent[v]; p >= 0 {
			pre := t.PreIndex[p]
			t.PreIndex[p] += t.Size[v]
			t.PreIndex[v] = pre + 1
			t.PreOrder[pre] = v
		}
	}
	for _, v := range t.order {
		t.PreIndex[v] -= t.Size[v]
	}
}

// Decompose adds the Fact 3.3 decomposition to an ancestry-only tree: the
// root path descends to the child with the largest subtree until a leaf;
// every subtree hanging off it has at most half the vertices and is
// decomposed recursively (implemented as a worklist). Glue edges connect
// each hanging head to its parent path. It is idempotent: a decomposed tree
// is left as it is, so every reader may call it before its first use.
func (t *Tree) Decompose() {
	if t.PathOf != nil {
		return
	}
	n := len(t.Parent)
	t.buildChildren(n)
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
	// Every reachable vertex lies on exactly one path, and each path is
	// laid down whole before the next begins, so one slab holds them all
	// and each path is a capped slice of it. Every path ends at a leaf
	// (Size 1), so the leaf count bounds the paths, their glue edges and
	// the pending heads alike: no list below grows past its allocation.
	leaves := 0
	for _, v := range t.order {
		if t.Size[v] == 1 {
			leaves++
		}
	}
	flat := make([]int32, 0, len(t.order))
	t.Paths = make([][]int32, 0, leaves)
	t.PathLevel = make([]int32, 0, leaves)
	t.GlueEdges = make([]graph.EdgeID, 0, leaves-1)
	work := append(make([]job, 0, leaves), job{head: t.Root, level: 0})
	for len(work) > 0 {
		j := work[len(work)-1]
		work = work[:len(work)-1]
		if j.level > t.MaxLevel {
			t.MaxLevel = j.level
		}
		idx := int32(len(t.Paths))
		start := len(flat)
		v := j.head
		for {
			t.PathOf[v] = idx
			t.PosOf[v] = int32(len(flat) - start)
			flat = append(flat, v)
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
		t.Paths = append(t.Paths, flat[start:len(flat):len(flat)])
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
