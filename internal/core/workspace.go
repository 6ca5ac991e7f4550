package core

import (
	"ftbfs/internal/tree"
)

// workspace holds the scratch buffers that keep the Phase S2 hot path
// allocation-free: stamped mark arrays (indexed by pair id and edge id), the
// insertion-ordered add set of the terminal being processed, and the
// segment-boundary buffer of the exponential decomposition. Each source
// group's pairIndex owns one, so every ε of the group recycles it.
type workspace struct {
	pairMark []int32        // stamped add-set membership, indexed by pair id
	edgeMark []int32        // stamped distinct-last-edge marks, indexed by edge id
	addList  []int32        // insertion-ordered add set of the current terminal
	bounds   []int          // reusable buffer for paths.DecomposeLenInto
	segs     []tree.Segment // reusable buffer for tree.AppendSegmentsTo
	stamp    int32
}

// ensure sizes the mark arrays for a build with nPairs uncovered pairs on a
// graph with m edges. Freshly grown arrays are zeroed, which can never
// collide with a live stamp (stamps start at 1 and only grow).
func (ws *workspace) ensure(nPairs, m int) {
	if len(ws.pairMark) < nPairs {
		ws.pairMark = make([]int32, nPairs)
	}
	if len(ws.edgeMark) < m {
		ws.edgeMark = make([]int32, m)
	}
}

// nextStamp starts a new logical mark set. On the (practically unreachable)
// int32 wrap-around the mark arrays are cleared so stale entries cannot alias
// the restarted counter.
func (ws *workspace) nextStamp() int32 {
	ws.stamp++
	if ws.stamp < 0 {
		for i := range ws.pairMark {
			ws.pairMark[i] = 0
		}
		for i := range ws.edgeMark {
			ws.edgeMark[i] = 0
		}
		ws.stamp = 1
	}
	return ws.stamp
}
