package core

import (
	"cmp"
	"math"
	"slices"

	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// pairIndex holds the uncovered pairs of Phase S0 with what Phase S1's
// interference tests read (Eq. 1 of the paper: two pairs interfere when
// their detours share a vertex internal to both), and the scratch those
// tests and Phase S2 reuse across iterations and across the group's ε
// values.
type pairIndex struct {
	en    *replacement.Engine
	pairs []*replacement.Pair

	internal [][]int32 // internal detour vertices per pair (detour minus endpoints)
	pre, end []int32   // I(c) = [pre, end) of each pair's failing-edge child c
	preV     []int32   // pre(v) of each pair's terminal v
	spanOff  []int32   // U_p of pair p is spans[spanOff[p]:spanOff[p+1]]
	spans    []span

	// interfering's per-vertex summaries of a set: the largest pre(c) and
	// the least end(c) over the set's pairs whose detour interior passes
	// the vertex.
	maxPre, minEnd []int32

	// bucket's layout of Pi by interior vertex z: z's run is entries
	// [start[z], start[z+1]) in increasing pre(v) (key), with a segment
	// tree over pre(c) (segMax) and end(c) (segMin).
	start, cursor  []int32
	key            []int32
	segMax, segMin []int32

	order, nonA, sorted []int32 // scratch lists of bucket, classify and groupByTerminal

	ws workspace // scratch for the Phase S2 hot path, shared by the group's ε values
}

// span is the preorder interval [lo, hi) of a subtree of T0.
type span struct{ lo, hi int32 }

func buildPairIndex(en *replacement.Engine, pairs []*replacement.Pair) *pairIndex {
	n, t := en.G.N(), en.T
	ix := &pairIndex{
		en:       en,
		pairs:    pairs,
		internal: make([][]int32, len(pairs)),
		pre:      make([]int32, len(pairs)),
		end:      make([]int32, len(pairs)),
		preV:     make([]int32, len(pairs)),
		spanOff:  make([]int32, len(pairs)+1),
		maxPre:   make([]int32, n),
		minEnd:   make([]int32, n),
		start:    make([]int32, n+1),
		cursor:   make([]int32, n),
	}
	for i, p := range pairs {
		if len(p.Detour) > 2 {
			ix.internal[i] = p.Detour[1 : len(p.Detour)-1]
		}
		c := p.EdgeChild
		ix.pre[i], ix.end[i], ix.preV[i] = t.PreIndex[c], t.PreIndex[c]+t.Size[c], t.PreIndex[p.V]
		// U_p: the interior's subtree intervals sorted by start, each
		// dropped when it nests in the last one kept (see classify).
		from := len(ix.spans)
		for _, z := range ix.internal[i] {
			ix.spans = append(ix.spans, span{t.PreIndex[z], t.PreIndex[z] + t.Size[z]})
		}
		u := ix.spans[from:]
		slices.SortFunc(u, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		kept := 0
		for _, s := range u {
			if kept == 0 || s.lo >= u[kept-1].hi {
				u[kept] = s
				kept++
			}
		}
		ix.spans = ix.spans[:from+kept]
		ix.spanOff[i+1] = int32(len(ix.spans))
	}
	return ix
}

// splitI1I2 partitions all pairs into I1 (pairs with at least one
// (≁)-interference anywhere in UP) and the (∼)-set I2 = UP \ I1, each in
// increasing pair order.
//
// The test runs on T0's preorder intervals. A reachable vertex x owns
// I(x) = [pre(x), end(x)) = [PreIndex[x], PreIndex[x]+Size[x]), the
// preorder positions of its subtree. Two such intervals are nested or
// disjoint, and I(x) ⊆ I(y) iff y is an ancestor of x or x itself.
//
//   - The failing edges of pairs p and q, with children c_p and c_q, are
//     related (e_p ∼ e_q) iff one child is an ancestor of the other, so
//     e_p ≁ e_q iff I(c_p) and I(c_q) are disjoint: pre(c_q) ≥ end(c_p)
//     or end(c_q) ≤ pre(c_p).
//   - The rule itself rules out p and the other pairs of p's terminal v:
//     a pair is related to itself, and two pairs of v fail edges of
//     π(s,v), so both children are ancestors of v and both intervals hold
//     pre(v).
//   - So p has a (≁)-interferer through an interior vertex z iff, over
//     the pairs q through z, the largest pre(c_q) is ≥ end(c_p) or the
//     least end(c_q) is ≤ pre(c_p): one O(1) check per (p, z) against
//     z's summary (interfering).
func (ix *pairIndex) splitI1I2() (i1, i2 []int32) {
	all := make([]int32, len(ix.pairs))
	for i := range all {
		all[i] = int32(i)
	}
	return ix.interfering(all)
}

// interfering partitions set, keeping its order, into the pairs that
// (≁)-interfere with another pair of set and the rest. It first fills
// maxPre and minEnd at every vertex z on a detour interior, over the pairs
// of set through z. Both lists are cut from one len(set) slab: with fills
// it from the front and without from the back, reversed into set order at
// the end. with is returned capped, so no append to it reaches without.
func (ix *pairIndex) interfering(set []int32) (with, without []int32) {
	for _, q := range set {
		for _, z := range ix.internal[q] {
			ix.maxPre[z], ix.minEnd[z] = -1, math.MaxInt32
		}
	}
	for _, q := range set {
		for _, z := range ix.internal[q] {
			ix.maxPre[z] = max(ix.maxPre[z], ix.pre[q])
			ix.minEnd[z] = min(ix.minEnd[z], ix.end[q])
		}
	}
	slab := make([]int32, len(set))
	nw, lo := 0, len(set)
next:
	for _, p := range set {
		for _, z := range ix.internal[p] {
			if ix.unrelated(p, ix.maxPre[z], ix.minEnd[z]) {
				slab[nw] = p
				nw++
				continue next
			}
		}
		lo--
		slab[lo] = p
	}
	without = slab[nw:]
	slices.Reverse(without)
	return slab[:nw:nw], without
}

// unrelated reports whether some failing-edge child among a group of pairs
// whose largest pre(c) is maxPre and least end(c) is minEnd has an
// interval disjoint from that of pair p's child (an empty group: -1 and
// MaxInt32).
func (ix *pairIndex) unrelated(p, maxPre, minEnd int32) bool {
	return maxPre >= ix.end[p] || minEnd <= ix.pre[p]
}

// classify splits the working set Pi into the paper's type A, B and C pairs
// (Eqs. 2–3), each in the order of Pi:
//
//	A: π-intersects a (≁)-interfering pair of Pi;
//	B: not A, and (≁)-interferes with another non-A pair of Pi;
//	C: everything else — a (∼)-set deferred to Phase S2 (Obs. 4.11).
//
// B is splitI1I2's test over Pi ∖ A. A adds π-intersection: p's detour
// meets π(LCA(v_p,t), t) ∖ {LCA}, where t is the other pair's terminal.
//
//   - That holds exactly when an interior vertex z of p's detour is an
//     ancestor of t. An ancestor of t lies either on π(s, LCA), and so on
//     π(s, v_p), which the detour interior avoids (Observation 3.2), or
//     strictly below the LCA, on the path in question. The detour's
//     endpoints never count: Div is on π(s, v_p), so if it were strictly
//     below the LCA it would be a deeper common ancestor of v_p and t; and
//     v_p below the LCA on π(s, t) would make v_p itself the LCA.
//   - So it holds iff pre(t) lies in U_p, the union of I(z) over p's
//     interior. Sorted by start, each of those intervals either nests in
//     the last one kept (it starts before that one ends) or starts at or
//     after its end. Keeping only the latter leaves at most |interior|
//     disjoint intervals with the same union (buildPairIndex).
//   - p is type A iff some z of its interior carries a pair q of Pi with
//     pre(v_q) in U_p and e_q ≁ e_p. Among z's pairs sorted by pre(v_q)
//     (bucket), those in one interval of U_p form a contiguous run. So each
//     (z, interval) is one range query for the run's largest pre(c_q) and
//     least end(c_q) (typeA).
func (ix *pairIndex) classify(pi []int32) (a, b, c []int32) {
	ix.bucket(pi)
	nonA := ix.nonA[:0]
	for _, p := range pi {
		if ix.typeA(p) {
			a = append(a, p)
		} else {
			nonA = append(nonA, p)
		}
	}
	ix.nonA = nonA
	b, c = ix.interfering(nonA)
	return a, b, c
}

// bucket lays out Pi by interior vertex for typeA: z's run, entries
// [start[z], start[z+1]), holds the pairs of Pi through z in increasing
// pre(v), which key records. An iterative segment tree over each run
// answers the largest pre(c) and the least end(c) of any subrun: a run of
// k entries from s keeps inner node j (1 ≤ j < k) at 2s+j and entry s+i
// at leaf 2s+k+i, so node 2s+1 covers the whole run.
func (ix *pairIndex) bucket(pi []int32) {
	order := append(ix.order[:0], pi...)
	slices.SortFunc(order, func(p, q int32) int { return cmp.Compare(ix.preV[p], ix.preV[q]) })
	ix.order = order
	start := ix.start
	clear(start)
	for _, q := range order {
		for _, z := range ix.internal[q] {
			start[z+1]++
		}
	}
	for z := 1; z < len(start); z++ {
		start[z] += start[z-1]
	}
	total := int(start[len(start)-1])
	ix.key = slices.Grow(ix.key[:0], total)[:total]
	ix.segMax = slices.Grow(ix.segMax[:0], 2*total)[:2*total]
	ix.segMin = slices.Grow(ix.segMin[:0], 2*total)[:2*total]
	copy(ix.cursor, start)
	for _, q := range order {
		for _, z := range ix.internal[q] {
			i := ix.cursor[z]
			ix.cursor[z]++
			leaf := start[z+1] + i // 2s + k + (i − s)
			ix.key[i], ix.segMax[leaf], ix.segMin[leaf] = ix.preV[q], ix.pre[q], ix.end[q]
		}
	}
	for z := 0; z+1 < len(start); z++ {
		s, k := 2*start[z], start[z+1]-start[z]
		for j := k - 1; j >= 1; j-- {
			ix.segMax[s+j] = max(ix.segMax[s+2*j], ix.segMax[s+2*j+1])
			ix.segMin[s+j] = min(ix.segMin[s+2*j], ix.segMin[s+2*j+1])
		}
	}
}

// typeA reports whether pair p of the set last bucketed π-intersects a
// (≁)-interferer of that set: one range query per interior vertex z and
// interval of U_p, skipping each z whose whole run is related to p.
func (ix *pairIndex) typeA(p int32) bool {
	u := ix.spans[ix.spanOff[p]:ix.spanOff[p+1]]
	for _, z := range ix.internal[p] {
		s, e := ix.start[z], ix.start[z+1]
		if !ix.unrelated(p, ix.segMax[2*s+1], ix.segMin[2*s+1]) {
			continue
		}
		keys := ix.key[s:e]
		for _, iv := range u {
			l, _ := slices.BinarySearch(keys, iv.lo)
			r, _ := slices.BinarySearch(keys[l:], iv.hi)
			if r == 0 {
				continue
			}
			if mx, mn := ix.runQuery(z, s+int32(l), s+int32(l+r)); ix.unrelated(p, mx, mn) {
				return true
			}
		}
	}
	return false
}

// runQuery returns the largest pre(c) and the least end(c) over entries
// [l, r) of z's run.
func (ix *pairIndex) runQuery(z, l, r int32) (maxPre, minEnd int32) {
	s := ix.start[z]
	base, k := 2*s, ix.start[z+1]-s
	maxPre, minEnd = -1, math.MaxInt32
	for l, r = l-s+k, r-s+k; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			maxPre, minEnd = max(maxPre, ix.segMax[base+l]), min(minEnd, ix.segMin[base+l])
			l++
		}
		if r&1 == 1 {
			r--
			maxPre, minEnd = max(maxPre, ix.segMax[base+r]), min(minEnd, ix.segMin[base+r])
		}
	}
	return maxPre, minEnd
}

// groupByTerminal returns the pairs of set ordered by terminal v (in
// increasing id order, for determinism), then by increasing distance of
// the failing edge from v (deepest edges first; the ordering −→P(v) of the
// paper), then by edge id. Each terminal's pairs form one run (runEnd).
// The result is the index's scratch list, which the next call overwrites;
// set itself is left as it is.
func (ix *pairIndex) groupByTerminal(set []int32) []int32 {
	sorted := append(ix.sorted[:0], set...)
	t := ix.en.T
	slices.SortFunc(sorted, func(p, q int32) int {
		pp, pq := ix.pairs[p], ix.pairs[q]
		if pp.V != pq.V {
			return cmp.Compare(pp.V, pq.V)
		}
		if dp, dq := pp.DistFromV(t), pq.DistFromV(t); dp != dq {
			return cmp.Compare(dp, dq)
		}
		return cmp.Compare(pp.Edge, pq.Edge)
	})
	ix.sorted = sorted
	return sorted
}

// runEnd returns the end of the terminal run of sorted (a groupByTerminal
// result) that starts at i.
func (ix *pairIndex) runEnd(sorted []int32, i int) int {
	v := ix.pairs[sorted[i]].V
	j := i + 1
	for j < len(sorted) && ix.pairs[sorted[j]].V == v {
		j++
	}
	return j
}

// lastEdgeOf returns the last-edge id of pair p.
func (ix *pairIndex) lastEdgeOf(p int32) graph.EdgeID { return ix.pairs[p].LastID }
