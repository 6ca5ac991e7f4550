package core

import (
	"sort"

	"ftbfs/internal/graph"
	"ftbfs/internal/paths"
)

// runPhase2 executes Phase S2: given the collection S of (∼)-sets (I2 plus
// the PC_i sets deferred by Phase S1), it adds to H
//
//	(S2.1) the last edges of every uncovered pair protecting a glue edge of
//	       the Fact 3.3 tree decomposition (O(log n) per terminal by
//	       Fact 4.1(a));
//	(S2.2) for every set P and terminal v, the pairs of the light
//	       subsegments of the exponential decomposition of π(s,v), plus the
//	       upmost pair of every subsegment;
//	(S2.3) for every decomposition path ψ met by π(s,v), the upmost pair on
//	       ψ and — when small — the pairs of the first and last subsegments
//	       that straddle ψ's boundary.
//
// It returns the number of last edges added by S2.1 and by S2.2–S2.3.
//
// The per-terminal state (the add set, the subsegment grouping and the
// distinct-last-edge counts) lives entirely in the pairIndex's workspace:
// stamped mark arrays instead of maps, and contiguous runs of the
// edge-index-sorted pair list instead of a segment hash. Per-terminal work
// therefore allocates nothing once the workspace has warmed up.
func runPhase2(ix *pairIndex, H *graph.EdgeSet, sets [][]int32, threshold int) (glueAdded, added int) {
	t := ix.en.T
	t.Decompose() // the engine keeps only T0's ancestry until Phase S2 needs TD
	ws := &ix.ws
	ws.ensure(len(ix.pairs), ix.en.G.M())

	// --- Sub-Phase S2.1: glue edges E⁻(TD). ---
	glueStamp := ws.nextStamp()
	for _, e := range t.GlueEdges {
		ws.edgeMark[e] = glueStamp
	}
	for i, p := range ix.pairs {
		if ws.edgeMark[p.Edge] == glueStamp && H.Add(ix.lastEdgeOf(int32(i))) {
			glueAdded++
		}
	}

	// --- Sub-Phases S2.2 and S2.3, per (∼)-set and terminal. ---
	for _, set := range sets {
		sorted := ix.groupByTerminal(set)
		for from, to := 0, 0; from < len(sorted); from = to {
			to = ix.runEnd(sorted, from)
			vpairs := sorted[from:to]
			v := ix.pairs[vpairs[0]].V
			// The run arrives ordered deepest failing edge first; the edge
			// indexes of one terminal's pairs are pairwise distinct (one pair
			// per edge of π(s,v)), so reversing it in place yields the
			// strictly increasing edge-index order (upmost first) the
			// sub-phases need.
			for i, j := 0, len(vpairs)-1; i < j; i, j = i+1, j-1 {
				vpairs[i], vpairs[j] = vpairs[j], vpairs[i]
			}
			addStamp := ws.nextStamp()
			ws.addList = ws.addList[:0]
			addPair := func(p int32) {
				if ws.pairMark[p] != addStamp {
					ws.pairMark[p] = addStamp
					ws.addList = append(ws.addList, p)
				}
			}
			k := int(t.Depth[v])
			dec := paths.DecomposeLenInto(k, ws.bounds)
			ws.bounds = dec.Bounds

			// S2.2: group v's pairs by subsegment. Segments cover contiguous
			// edge-index ranges, so each group is a run of vpairs.
			for i := 0; i < len(vpairs); {
				_, hi := dec.EdgeRange(dec.SegmentOfEdge(edgeIndexOf(ix, vpairs[i])))
				end := i + 1
				for end < len(vpairs) && edgeIndexOf(ix, vpairs[end]) < hi {
					end++
				}
				grp := vpairs[i:end]
				if countDistinctLast(ix, ws, grp) < threshold { // light subsegment
					for _, p := range grp {
						addPair(p)
					}
				}
				addPair(grp[0]) // ⟨v, e*_j⟩ — upmost pair of the segment
				i = end
			}

			// S2.3: per decomposition path ψ intersecting π(s,v). The
			// ψ∩π(s,v) edges form the contiguous edge-index interval
			// [D0, D1) where D0 = depth of ψ's head on the segment and D1 =
			// depth of the deepest ψ-vertex that is an ancestor of v.
			ws.segs = t.AppendSegmentsTo(ws.segs[:0], v)
			for _, seg := range ws.segs {
				path := t.Paths[seg.Path]
				d0 := int(t.Depth[path[0]])
				d1 := int(t.Depth[path[seg.BottomPos]])
				if d1 <= d0 {
					continue // single-vertex intersection: no π edges on ψ
				}
				// pairs with e ∈ ψ ∩ π(s,v)
				onPsi := pairsInRange(ix, vpairs, d0, d1)
				if len(onPsi) == 0 {
					continue
				}
				addPair(onPsi[0]) // upmost pair ⟨v, e*⟩ on ψ

				// boundary subsegments πU and πL: π-subsegments that meet ψ
				// but are not contained in it.
				first, last := -1, -1
				for j := 0; j < dec.NumSegments(); j++ {
					lo, hi := dec.EdgeRange(j)
					meets := lo < d1 && hi > d0
					contained := lo >= d0 && hi <= d1
					if meets && !contained {
						if first == -1 {
							first = j
						}
						last = j
					}
				}
				for bi, j := range [2]int{first, last} { // {first, last} deduplicated
					if j == -1 || (bi == 1 && last == first) {
						break
					}
					lo, hi := dec.EdgeRange(j)
					clo, chi := max(lo, d0), min(hi, d1)
					pu := pairsInRange(ix, vpairs, clo, chi)
					if len(pu) == 0 {
						continue
					}
					if countDistinctLast(ix, ws, pu) <= threshold {
						for _, p := range pu {
							addPair(p)
						}
					}
					addPair(pu[0]) // ⟨v, e*_U⟩ (resp. e*_L)
				}
			}

			for _, p := range ws.addList {
				if H.Add(ix.lastEdgeOf(p)) {
					added++
				}
			}
		}
	}
	return glueAdded, added
}

// countDistinctLast returns the number of distinct last-edge ids among the
// given pairs, using the workspace's stamped edge marks.
func countDistinctLast(ix *pairIndex, ws *workspace, ps []int32) int {
	stamp := ws.nextStamp()
	distinct := 0
	for _, p := range ps {
		if e := ix.lastEdgeOf(p); ws.edgeMark[e] != stamp {
			ws.edgeMark[e] = stamp
			distinct++
		}
	}
	return distinct
}

// edgeIndexOf returns the edge index of pair p's failing edge along
// π(s, p.V): depth(child) − 1.
func edgeIndexOf(ix *pairIndex, p int32) int {
	return int(ix.en.T.Depth[ix.pairs[p].EdgeChild]) - 1
}

// pairsInRange returns the pairs (already sorted by edge index) whose edge
// index lies in [lo, hi).
func pairsInRange(ix *pairIndex, sorted []int32, lo, hi int) []int32 {
	i := sort.Search(len(sorted), func(i int) bool { return edgeIndexOf(ix, sorted[i]) >= lo })
	j := sort.Search(len(sorted), func(i int) bool { return edgeIndexOf(ix, sorted[i]) >= hi })
	return sorted[i:j]
}
