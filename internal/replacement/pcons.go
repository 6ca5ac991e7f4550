package replacement

import (
	"fmt"

	"ftbfs/internal/graph"
	"ftbfs/internal/paths"
)

// terminalSearch is Phase S0's per-terminal state. The engine allocates it
// on the first AllPairs (a vertex or Tree build never runs Phase S0) and
// recycles it across Reset.
type terminalSearch struct {
	dist  []int32 // D(x) where mark[x] == stamp; -1 on π(s,v) ∖ {v}
	mark  []int32
	stamp int32
	queue []int32
	pi    []int32 // π(s,v) = u_0 … u_k
	delta []int32 // δ(j) for j up to the terminal's deepest failing edge
	head  []int32 // terminal → index of its last uncovered pair, or -1
	next  []int32 // pair index → index of its terminal's previous pair, or -1

	// detours is the unused tail of the current detour chunk. Each
	// terminal's detours are cut from it, and a cut is never handed out
	// again, so pairs from before a Reset keep theirs.
	detours paths.Path
}

// detourChunk is the least size of a fresh detour chunk, in vertices.
const detourChunk = 1 << 12

// level returns D(x), or -1 when x lies on π(s,v) ∖ {v} or past the bound.
func (ts *terminalSearch) level(x int32) int32 {
	if ts.mark[x] != ts.stamp {
		return -1
	}
	return ts.dist[x]
}

// computeAllPairs is Phase S0. The failure sweep finds the uncovered pairs
// in AllPairs order and appends them to one slice of values; then one
// search per terminal fills in the paths of all of its pairs
// (searchTerminal), and the result points into that slice.
func (en *Engine) computeAllPairs() []*Pair {
	if en.s0 == nil {
		n := en.G.N()
		en.s0 = &terminalSearch{dist: make([]int32, n), mark: make([]int32, n), queue: make([]int32, 0, n),
			pi: make([]int32, n), delta: make([]int32, n), head: make([]int32, n)}
	}
	ts := en.s0
	for v := range ts.head {
		ts.head[v] = -1
	}
	ts.next = ts.next[:0]
	var vals []Pair
	en.ForEachFailure(func(e graph.EdgeID, child int32, sub, distE []int32) {
		for _, v := range sub {
			// A pair is covered when a T0 edge certifies it; the probe
			// also reports vacuous pairs (v unreachable in G\{e}) as
			// covered: there is nothing to protect.
			if _, covered := en.LastEdgeIn(en.TreeEdges, v, e, -1, distE); covered {
				continue
			}
			ts.next = append(ts.next, ts.head[v])
			ts.head[v] = int32(len(vals))
			vals = append(vals, Pair{V: v, Edge: e, EdgeChild: child, Dist: distE[v]})
		}
	})
	for v, last := range ts.head {
		if last >= 0 {
			en.searchTerminal(int32(v), vals, last)
		}
	}
	out := make([]*Pair, len(vals))
	for i := range vals {
		out[i] = &vals[i]
	}
	return out
}

// searchTerminal completes every uncovered pair of terminal v (out[last],
// then along next) with Algorithm Pcons's divergence point, detour and last
// edge, from one BFS rooted at v in G ∖ (π(s,v) ∖ {v}). The search stops at
// the largest target: only D(x) < dist(s,v,G∖{e}) can lie on a detour.
// With D in hand, δ(j) is one scan of u_j's arcs, j* is the least j ≤ i
// with j + δ(j) = target, and the detour is the min-index walk back from
// u_{j*} down D's levels. The package comment argues why that is Pcons's
// path. It finds every pair's j* first, then cuts all of their detours
// from one run of the engine's detour chunk. It panics on a failing edge
// off π(s,v), on a pair with no such j* or no walk, and on a T0 last edge:
// each is a state the sweep cannot hand it.
func (en *Engine) searchTerminal(v int32, out []Pair, last int32) {
	ts := en.s0
	k := int(en.BT.Dist[v])
	pi := ts.pi[:k+1]
	for t, x := k, v; t >= 0; t, x = t-1, en.BT.Parent[x] {
		pi[t] = x
	}
	bound, deepest := int32(0), 0
	for p := last; p >= 0; p = ts.next[p] {
		child := out[p].EdgeChild
		i := int(en.T.Depth[child]) - 1 // e = (u_i, u_{i+1})
		if i < 0 || i >= k || pi[i+1] != child {
			panic(fmt.Sprintf("replacement: edge child %d (depth %d) not on π(s,%d)", child, en.T.Depth[child], v))
		}
		bound, deepest = max(bound, out[p].Dist), max(deepest, i)
	}

	csr := en.G.CSR()
	ts.stamp++
	for _, u := range pi[:k] {
		ts.mark[u], ts.dist[u] = ts.stamp, -1
	}
	ts.mark[v], ts.dist[v] = ts.stamp, 0
	q := append(ts.queue[:0], v)
	for h := 0; h < len(q) && ts.dist[q[h]] < bound-1; h++ {
		for _, a := range csr.ArcsOf(q[h]) {
			if ts.mark[a.To] != ts.stamp {
				ts.mark[a.To], ts.dist[a.To] = ts.stamp, ts.dist[q[h]]+1
				q = append(q, a.To)
			}
		}
	}
	ts.queue = q

	// δ(j) = 1 + min D(x) over the arcs (u_j, x) but v's own tree edge;
	// n stands for "no detour leaves u_j within the bound".
	tree := en.BT.ParentEdge[v]
	for j := 0; j <= deepest; j++ {
		ts.delta[j] = int32(en.G.N())
		for _, a := range csr.ArcsOf(pi[j]) {
			if d := ts.level(a.To); d >= 0 && a.ID != tree {
				ts.delta[j] = min(ts.delta[j], d+1)
			}
		}
	}

	total := 0
	for p := last; p >= 0; p = ts.next[p] {
		pr := &out[p]
		i, j := int(en.T.Depth[pr.EdgeChild])-1, 0
		for j <= i && int32(j)+ts.delta[j] > pr.Dist {
			j++
		}
		if j > i || int32(j)+ts.delta[j] != pr.Dist {
			panic(fmt.Sprintf("replacement: no unique-divergence replacement path for ⟨%d,%v⟩", v, en.G.EdgeByID(pr.Edge)))
		}
		pr.Div = pi[j]
		total += int(pr.Dist) - j + 1
	}

	if len(ts.detours) < total {
		ts.detours = make(paths.Path, max(total, detourChunk))
	}
	buf := ts.detours[:total]
	ts.detours = ts.detours[total:]
	for p := last; p >= 0; p = ts.next[p] {
		pr := &out[p]
		size := int(pr.Dist-en.T.Depth[pr.Div]) + 1 // Div = u_{j*} is j* deep
		detour := buf[:size:size]
		buf = buf[size:]
		detour[0] = pr.Div
		for step := 1; step < len(detour); step++ {
			arcs, want, c := csr.ArcsOf(detour[step-1]), int32(len(detour)-1-step), 0
			for c < len(arcs) && ts.level(arcs[c].To) != want {
				c++
			}
			if c == len(arcs) {
				panic(fmt.Sprintf("replacement: no detour from divergence point %d to %d", pr.Div, v))
			}
			detour[step], pr.LastID = arcs[c].To, arcs[c].ID
		}
		if en.TreeEdges.Contains(pr.LastID) {
			panic(fmt.Sprintf("replacement: uncovered pair ⟨%d,%v⟩ produced a T0 last edge", v, en.G.EdgeByID(pr.Edge)))
		}
		pr.Detour = detour
	}
}
