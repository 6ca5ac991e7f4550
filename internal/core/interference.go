package core

import (
	"sort"

	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// pairIndex holds the uncovered pairs of Phase S0 together with the inverted
// detour-vertex index used to answer interference queries (Eq. 1 of the
// paper): two pairs interfere when their detours share a vertex internal to
// both.
type pairIndex struct {
	en    *replacement.Engine
	pairs []*replacement.Pair

	internal [][]int32 // internal detour vertices per pair (detour minus endpoints)
	byVertex [][]int32 // vertex → indices of pairs whose detour interior contains it
	byV      [][]int32 // terminal v → indices of its pairs

	inSet  []int32 // iteration-stamped membership marks for classify
	isA    []int32 // stamped type-A marks for classify's second pass
	interf []int32 // stamped has-interference marks for classify
	seenT  []int32 // stamped per-terminal dedup marks, indexed by vertex
	stamp  int32

	ws workspace // scratch for the Phase S2 hot path, shared by the group's ε values
}

func buildPairIndex(en *replacement.Engine, pairs []*replacement.Pair) *pairIndex {
	n := en.G.N()
	ix := &pairIndex{
		en:       en,
		pairs:    pairs,
		internal: make([][]int32, len(pairs)),
		byVertex: make([][]int32, n),
		byV:      make([][]int32, n),
		inSet:    make([]int32, len(pairs)),
		isA:      make([]int32, len(pairs)),
		interf:   make([]int32, len(pairs)),
		seenT:    make([]int32, n),
	}
	for i, p := range pairs {
		if len(p.Detour) > 2 {
			ix.internal[i] = p.Detour[1 : len(p.Detour)-1]
		}
		for _, z := range ix.internal[i] {
			ix.byVertex[z] = append(ix.byVertex[z], int32(i))
		}
		ix.byV[p.V] = append(ix.byV[p.V], int32(i))
	}
	return ix
}

// related reports e ∼ e' for the failing edges of pairs i and j.
func (ix *pairIndex) related(i, j int32) bool {
	return ix.en.T.Related(ix.pairs[i].EdgeChild, ix.pairs[j].EdgeChild)
}

// piIntersects reports whether the detour of pair i intersects
// π(LCA(v_i,t), t) \ {LCA}, which holds exactly when some interior detour
// vertex is an ancestor of t (an O(1) IsAncestor test each). An ancestor z
// of t lies either on π(s, LCA), and so on π(s, v_i), which the detour
// interior avoids (Observation 3.2), or strictly below the LCA, on the
// path in question. The detour's endpoints never count: Div is on
// π(s, v_i), so if it were strictly below the LCA it would be a deeper
// common ancestor of v_i and t; and v_i below the LCA on π(s, t) would
// make v_i itself the LCA.
func (ix *pairIndex) piIntersects(i int32, t int32) bool {
	for _, z := range ix.internal[i] {
		if ix.en.T.IsAncestor(z, t) {
			return true
		}
	}
	return false
}

// splitI1I2 partitions all pairs into I1 (pairs with at least one
// (≁)-interference anywhere in UP) and the (∼)-set I2 = UP \ I1.
func (ix *pairIndex) splitI1I2() (i1, i2 []int32) {
	for i := range ix.pairs {
		p := int32(i)
		if ix.hasNonSimInterference(p, nil) {
			i1 = append(i1, p)
		} else {
			i2 = append(i2, p)
		}
	}
	return i1, i2
}

// hasNonSimInterference reports whether pair p (≁)-interferes with any pair
// in the current set (restrict nil means: any pair at all).
func (ix *pairIndex) hasNonSimInterference(p int32, restrict func(int32) bool) bool {
	vp := ix.pairs[p].V
	for _, z := range ix.internal[p] {
		for _, q := range ix.byVertex[z] {
			if q == p || ix.pairs[q].V == vp {
				continue
			}
			if restrict != nil && !restrict(q) {
				continue
			}
			if !ix.related(p, q) {
				return true
			}
		}
	}
	return false
}

// classify splits the working set Pi into the paper's type A, B and C pairs
// (Eqs. 2–3):
//
//	A: π-intersects a (≁)-interfering pair of Pi;
//	B: not A, and (≁)-interferes with another non-A pair of Pi;
//	C: everything else — a (∼)-set deferred to Phase S2 (Obs. 4.11).
func (ix *pairIndex) classify(pi []int32) (a, b, c []int32) {
	// Three stamped mark sets replace the per-iteration maps: membership of
	// Pi, the type-A verdicts and the has-interference flags. Stamps only
	// ever grow, so marks from earlier iterations (or earlier builds sharing
	// this index) can never alias the current ones.
	ix.stamp++
	inStamp := ix.stamp
	for _, p := range pi {
		ix.inSet[p] = inStamp
	}
	aStamp := ix.stamp + 1
	interfStamp := ix.stamp + 2
	ix.stamp += 2
	for _, p := range pi {
		vp := ix.pairs[p].V
		ix.stamp++
		tStamp := ix.stamp // per-pair dedup of examined terminals
		found := false
	scanA:
		for _, z := range ix.internal[p] {
			for _, q := range ix.byVertex[z] {
				if q == p || ix.inSet[q] != inStamp || ix.pairs[q].V == vp || ix.related(p, q) {
					continue
				}
				ix.interf[p] = interfStamp
				t := ix.pairs[q].V
				if ix.seenT[t] == tStamp {
					continue
				}
				ix.seenT[t] = tStamp
				if ix.piIntersects(p, t) {
					found = true
					break scanA
				}
			}
		}
		if found {
			ix.isA[p] = aStamp
			a = append(a, p)
		}
	}
	// second pass: B needs an interfering partner that is itself non-A
	for _, p := range pi {
		if ix.isA[p] == aStamp {
			continue
		}
		if ix.interf[p] == interfStamp && ix.hasNonSimInterference(p, func(q int32) bool {
			return ix.inSet[q] == inStamp && ix.isA[q] != aStamp
		}) {
			b = append(b, p)
		} else {
			c = append(c, p)
		}
	}
	return a, b, c
}

// groupByTerminal buckets the given pairs by their terminal v and orders
// each bucket by increasing distance of the failing edge from v (deepest
// edges first) — the ordering −→P(v) of the paper. Terminals are returned
// in increasing id order for determinism.
func (ix *pairIndex) groupByTerminal(set []int32) (terminals []int32, buckets map[int32][]int32) {
	buckets = make(map[int32][]int32)
	for _, p := range set {
		v := ix.pairs[p].V
		if _, ok := buckets[v]; !ok {
			terminals = append(terminals, v)
		}
		buckets[v] = append(buckets[v], p)
	}
	sort.Slice(terminals, func(i, j int) bool { return terminals[i] < terminals[j] })
	t := ix.en.T
	for _, v := range terminals {
		b := buckets[v]
		sort.Slice(b, func(i, j int) bool {
			di := ix.pairs[b[i]].DistFromV(t)
			dj := ix.pairs[b[j]].DistFromV(t)
			if di != dj {
				return di < dj
			}
			return ix.pairs[b[i]].Edge < ix.pairs[b[j]].Edge
		})
	}
	return terminals, buckets
}

// lastEdgeOf returns the last-edge id of pair p.
func (ix *pairIndex) lastEdgeOf(p int32) graph.EdgeID { return ix.pairs[p].LastID }
