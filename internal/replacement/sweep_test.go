package replacement

import (
	"slices"
	"testing"

	"ftbfs/internal/bfs"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
)

// sweepCorpus covers the shapes the subtree repair must get right: random
// graphs (failures usually have a detour), the lower-bound family (long
// detours through fans), a cycle (every detour runs the long way round), a
// tree (every failure strands its whole subtree) and a disconnected graph
// (vertices outside the source's component are never in a subtree and stay
// Unreachable).
func sweepCorpus() map[string]*graph.Graph {
	b := graph.NewBuilder(50)
	for _, e := range randomConnected(30, 45, 8).Edges() {
		b.Add(int(e.U), int(e.V))
	}
	for _, e := range randomConnected(20, 25, 9).Edges() {
		b.Add(int(e.U)+30, int(e.V)+30)
	}
	return map[string]*graph.Graph{
		"random-40":    randomConnected(40, 60, 1),
		"random-90":    randomConnected(90, 200, 2),
		"lowerbound":   gen.LowerBoundParams(3, 4, 8).G,
		"cycle":        gen.Cycle(23),
		"tree":         gen.RandomTree(45, 3),
		"disconnected": b.Graph(),
	}
}

// sameAsSet reports whether sub lists, each once, exactly the vertices v for
// which in(v) holds.
func sameAsSet(n int, sub []int32, in func(v int32) bool) bool {
	seen := make([]bool, n)
	for _, v := range sub {
		if seen[v] || !in(v) {
			return false
		}
		seen[v] = true
	}
	for v := int32(0); v < int32(n); v++ {
		if in(v) && !seen[v] {
			return false
		}
	}
	return true
}

// The sweep repairs only the failed subtree; a full restricted BFS of G∖e is
// the independent reference. For every tree edge the distances it passes
// must match the reference at every vertex (so entries of earlier subtrees
// were restored), and the subtree it passes must be the child's subtree as
// a set (its order is the tree's preorder, which no consumer depends on).
func TestForEachFailureMatchesFullSearch(t *testing.T) {
	for name, g := range sweepCorpus() {
		for _, s := range []int{0, g.N() / 2} {
			en := NewEngine(g, s)
			sc := bfs.NewScratch(g.N())
			want := make([]int32, g.N())
			lastChild := int32(-1)
			count := 0
			en.ForEachFailure(func(e graph.EdgeID, child int32, sub, distE []int32) {
				count++
				if child <= lastChild {
					t.Fatalf("%s s=%d: child %d visited after %d", name, s, child, lastChild)
				}
				lastChild = child
				if en.BT.ParentEdge[child] != e {
					t.Fatalf("%s s=%d: edge %d is not the parent edge of %d", name, s, e, child)
				}
				if !sameAsSet(g.N(), sub, func(v int32) bool { return en.T.InSubtree(v, child) }) {
					t.Fatalf("%s s=%d edge %v: subtree %v is not the subtree of %d", name, s, g.EdgeByID(e), sub, child)
				}
				sc.DistancesAvoiding(g, s, bfs.Restriction{BannedEdge: e}, want)
				for v := range want {
					if distE[v] != want[v] {
						t.Fatalf("%s s=%d edge %v: dist[%d]=%d, full search %d",
							name, s, g.EdgeByID(e), v, distE[v], want[v])
					}
				}
				if name == "tree" {
					for _, v := range sub {
						if distE[v] != bfs.Unreachable {
							t.Fatalf("tree s=%d edge %v: vertex %d reachable at %d", s, g.EdgeByID(e), v, distE[v])
						}
					}
				}
			})
			reachable := 0
			for _, d := range en.BT.Dist {
				if d != bfs.Unreachable {
					reachable++
				}
			}
			if count != reachable-1 {
				t.Fatalf("%s s=%d: swept %d failures, want %d tree edges", name, s, count, reachable-1)
			}
		}
	}
}

// The vertex half of the sweep, against a full restricted BFS of G∖{w}:
// it must fail exactly the vertices w ≠ s of T0 with children, in
// increasing order (the source, leaves and vertices s cannot reach are
// skipped); pass w's strict descendants as sub; and pass distances equal
// to the reference at every vertex but w, whose entry keeps its intact
// distance (so entries of earlier failures were restored). On a tree every
// failure strands its whole sub.
func TestForEachVertexFailureMatchesFullSearch(t *testing.T) {
	for name, g := range sweepCorpus() {
		for _, s := range []int{0, g.N() / 2} {
			en := NewEngine(g, s)
			sc := bfs.NewScratch(g.N())
			banned := graph.NewVertexSet(g.N())
			want := make([]int32, g.N())
			var wantFailed []int32
			for w := int32(0); w < int32(g.N()); w++ {
				if w == int32(s) || en.BT.Dist[w] == bfs.Unreachable {
					continue
				}
				for v := range en.BT.Parent {
					if en.BT.Parent[v] == w {
						wantFailed = append(wantFailed, w)
						break
					}
				}
			}
			var failed []int32
			en.ForEachVertexFailure(func(w int32, sub, distE []int32) {
				failed = append(failed, w)
				if !sameAsSet(g.N(), sub, func(v int32) bool { return v != w && en.T.InSubtree(v, w) }) {
					t.Fatalf("%s s=%d vertex %d: sub %v is not its strict descendants", name, s, w, sub)
				}
				banned.Clear()
				banned.Add(w)
				sc.DistancesAvoiding(g, s, bfs.Restriction{BannedEdge: graph.NoEdge, BannedVertices: banned}, want)
				want[w] = en.BT.Dist[w]
				for v := range want {
					if distE[v] != want[v] {
						t.Fatalf("%s s=%d vertex %d: dist[%d]=%d, full search %d", name, s, w, v, distE[v], want[v])
					}
				}
				if name == "tree" {
					for _, v := range sub {
						if distE[v] != bfs.Unreachable {
							t.Fatalf("tree s=%d vertex %d: vertex %d reachable at %d", s, w, v, distE[v])
						}
					}
				}
			})
			if !slices.Equal(failed, wantFailed) {
				t.Fatalf("%s s=%d: failed vertices %v, want %v", name, s, failed, wantFailed)
			}
		}
	}
}
