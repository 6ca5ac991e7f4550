package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

func indexFor(t *testing.T, g *graph.Graph, s int) (*replacement.Engine, *pairIndex) {
	t.Helper()
	en := replacement.NewEngine(g, s)
	pairs := en.AllPairs()
	return en, buildPairIndex(en, pairs)
}

// Brute-force interference test between pairs i and j: detours share a
// vertex internal to both (Eq. 1).
func interferes(ix *pairIndex, i, j int32) bool {
	pi, pj := ix.pairs[i], ix.pairs[j]
	if pi.V == pj.V {
		return false
	}
	inJ := map[int32]bool{}
	for _, z := range pj.Detour[1 : len(pj.Detour)-1] {
		inJ[z] = true
	}
	for _, z := range pi.Detour[1 : len(pi.Detour)-1] {
		if inJ[z] {
			return true
		}
	}
	return false
}

// related reports e ∼ e' for the failing edges of pairs i and j: the tree
// relation on their child endpoints, one of which lies below the other
// (both edges are on a common root-leaf path π(s,·)).
func related(ix *pairIndex, i, j int32) bool {
	a, b := ix.pairs[i].EdgeChild, ix.pairs[j].EdgeChild
	return ix.en.T.InSubtree(a, b) || ix.en.T.InSubtree(b, a)
}

// piOnPath is π-intersection by its definition: the detour of pair p meets
// π(LCA(v_p, t), t) \ {LCA}, found by walking that path up from t. The walk
// stops at the first ancestor of t whose subtree holds v_p: the LCA.
func piOnPath(ix *pairIndex, p, t int32) bool {
	tr := ix.en.T
	onSeg := map[int32]bool{}
	for x := t; x >= 0 && !tr.InSubtree(ix.pairs[p].V, x); x = tr.Parent[x] {
		onSeg[x] = true
	}
	for _, z := range ix.pairs[p].Detour {
		if onSeg[z] {
			return true
		}
	}
	return false
}

// refScans is the quadratic reference for splitI1I2 and classify: for each
// interior vertex z of a pair's detour it walks every pair whose detour
// also passes z (byVertex) and tests the tree relation on each.
type refScans struct {
	ix       *pairIndex
	byVertex [][]int32 // vertex → indices of pairs whose detour interior contains it

	inSet  []int32 // iteration-stamped membership marks for classifyRef
	isA    []int32 // stamped type-A marks for classifyRef's second pass
	interf []int32 // stamped has-interference marks for classifyRef
	seenT  []int32 // stamped per-terminal dedup marks, indexed by vertex
	stamp  int32
}

func newRefScans(ix *pairIndex) *refScans {
	n := ix.en.G.N()
	r := &refScans{
		ix:       ix,
		byVertex: make([][]int32, n),
		inSet:    make([]int32, len(ix.pairs)),
		isA:      make([]int32, len(ix.pairs)),
		interf:   make([]int32, len(ix.pairs)),
		seenT:    make([]int32, n),
	}
	for i := range ix.pairs {
		for _, z := range ix.internal[i] {
			r.byVertex[z] = append(r.byVertex[z], int32(i))
		}
	}
	return r
}

// piIntersects reports whether the detour of pair i intersects
// π(LCA(v_i,t), t) \ {LCA}: whether some interior detour vertex is an
// ancestor of t (classify's doc argues why only the interior counts).
func (r *refScans) piIntersects(i int32, t int32) bool {
	for _, z := range r.ix.internal[i] {
		if r.ix.en.T.InSubtree(t, z) {
			return true
		}
	}
	return false
}

func (r *refScans) splitI1I2Ref() (i1, i2 []int32) {
	for i := range r.ix.pairs {
		p := int32(i)
		if r.hasNonSimInterference(p, nil) {
			i1 = append(i1, p)
		} else {
			i2 = append(i2, p)
		}
	}
	return i1, i2
}

// hasNonSimInterference reports whether pair p (≁)-interferes with any pair
// in the current set (restrict nil means: any pair at all).
func (r *refScans) hasNonSimInterference(p int32, restrict func(int32) bool) bool {
	ix := r.ix
	vp := ix.pairs[p].V
	for _, z := range ix.internal[p] {
		for _, q := range r.byVertex[z] {
			if q == p || ix.pairs[q].V == vp {
				continue
			}
			if restrict != nil && !restrict(q) {
				continue
			}
			if !related(ix, p, q) {
				return true
			}
		}
	}
	return false
}

func (r *refScans) classifyRef(pi []int32) (a, b, c []int32) {
	ix := r.ix
	r.stamp++
	inStamp := r.stamp
	for _, p := range pi {
		r.inSet[p] = inStamp
	}
	aStamp := r.stamp + 1
	interfStamp := r.stamp + 2
	r.stamp += 2
	for _, p := range pi {
		vp := ix.pairs[p].V
		r.stamp++
		tStamp := r.stamp // per-pair dedup of examined terminals
		found := false
	scanA:
		for _, z := range ix.internal[p] {
			for _, q := range r.byVertex[z] {
				if q == p || r.inSet[q] != inStamp || ix.pairs[q].V == vp || related(ix, p, q) {
					continue
				}
				r.interf[p] = interfStamp
				t := ix.pairs[q].V
				if r.seenT[t] == tStamp {
					continue
				}
				r.seenT[t] = tStamp
				if r.piIntersects(p, t) {
					found = true
					break scanA
				}
			}
		}
		if found {
			r.isA[p] = aStamp
			a = append(a, p)
		}
	}
	// second pass: B needs an interfering partner that is itself non-A
	for _, p := range pi {
		if r.isA[p] == aStamp {
			continue
		}
		if r.interf[p] == interfStamp && r.hasNonSimInterference(p, func(q int32) bool {
			return r.inSet[q] == inStamp && r.isA[q] != aStamp
		}) {
			b = append(b, p)
		} else {
			c = append(c, p)
		}
	}
	return a, b, c
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// interferenceCorpus is the differential's graphs: random connected and
// GNP graphs of growing size and density, the lower-bound family at three
// sizes, structured graphs, and perfbench's fixture generator.
func interferenceCorpus() []namedGraph {
	var c []namedGraph
	for i := 0; i < 20; i++ {
		n := 20 + 9*i
		c = append(c, namedGraph{fmt.Sprintf("random-%d-%d", n, i), gen.RandomConnected(n, n*(1+i%3), int64(100+i))})
	}
	for i, p := range []float64{0.04, 0.06, 0.08, 0.1, 0.15, 0.2, 0.3, 0.5} {
		c = append(c, namedGraph{fmt.Sprintf("gnp-%g", p), gen.GNP(40+10*i, p, int64(200+i))})
	}
	for i := 0; i < 4; i++ {
		c = append(c, namedGraph{fmt.Sprintf("gnpconnected-%d", i), gen.GNPConnected(60+20*i, 0.05, int64(300+i))})
	}
	return append(c,
		namedGraph{"lowerbound-3-4-8", gen.LowerBoundParams(3, 4, 8).G},
		namedGraph{"lowerbound-2-4-5", gen.LowerBoundParams(2, 4, 5).G},
		namedGraph{"lowerbound-1198", gen.LowerBound(1198, 0.42).G},
		namedGraph{"grid", gen.Grid(7, 9)},
		namedGraph{"hypercube", gen.Hypercube(6)},
		namedGraph{"cliquechain", gen.CliqueChain(14)},
		namedGraph{"torus", gen.Torus(6, 8)},
		namedGraph{"regular", gen.RandomRegular(80, 4, 7)},
		namedGraph{"fixture", gen.RandomConnected(400, 1200, 9)},
	)
}

// The interval tests must return exactly the quadratic scans' lists, in the
// same order: the I1/I2 split, and classify on every Phase S1 iteration as
// runPhase1 feeds it, at thresholds 1, 2 and ⌈n^ε⌉ for ε ∈ {0.1, 0.3}, over
// the K = ⌈1/ε⌉+2 iterations of the smaller ε.
func TestInterferenceMatchesReference(t *testing.T) {
	k := int(math.Ceil(1/0.1)) + 2
	graphs, pairs, calls := 0, 0, 0
	for _, ng := range interferenceCorpus() {
		graphs++
		n := ng.g.N()
		for _, s := range []int{0, n / 3, n - 1} {
			en, ix := indexFor(t, ng.g, s)
			ref := newRefScans(ix)
			pairs += len(ix.pairs)
			i1, i2 := ix.splitI1I2()
			ri1, ri2 := ref.splitI1I2Ref()
			if !slices.Equal(i1, ri1) || !slices.Equal(i2, ri2) {
				t.Fatalf("%s s=%d: I1/I2 sizes %d/%d, reference %d/%d", ng.name, s, len(i1), len(i2), len(ri1), len(ri2))
			}
			for _, threshold := range []int{1, 2, int(math.Ceil(math.Pow(float64(n), 0.1))), int(math.Ceil(math.Pow(float64(n), 0.3)))} {
				h := en.TreeEdges.Clone()
				pi := i1
				for iter := 1; iter <= k && len(pi) > 0; iter++ {
					a, b, c := ix.classify(pi)
					ra, rb, rc := ref.classifyRef(pi)
					if !slices.Equal(a, ra) || !slices.Equal(b, rb) || !slices.Equal(c, rc) {
						t.Fatalf("%s s=%d threshold %d iteration %d: A/B/C %d/%d/%d, reference %d/%d/%d",
							ng.name, s, threshold, iter, len(a), len(b), len(c), len(ra), len(rb), len(rc))
					}
					calls++
					pi = runPhase1(ix, h, pi, 1, threshold).Leftover
				}
			}
		}
	}
	if graphs < 40 {
		t.Fatalf("corpus has %d graphs, want at least 40", graphs)
	}
	t.Logf("%d graphs × 3 sources: %d pairs split and %d classify calls match the reference", graphs, pairs, calls)
}

func TestSplitI1I2MatchesBruteForce(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.LowerBoundParams(2, 3, 5).G,
		gen.RandomConnected(50, 80, 3),
		gen.GNPConnected(60, 0.07, 4),
	} {
		_, ix := indexFor(t, g, 0)
		i1, i2 := ix.splitI1I2()
		if len(i1)+len(i2) != len(ix.pairs) {
			t.Fatalf("I1+I2=%d+%d != %d pairs", len(i1), len(i2), len(ix.pairs))
		}
		inI1 := map[int32]bool{}
		for _, p := range i1 {
			inI1[p] = true
		}
		for i := range ix.pairs {
			want := false
			for j := range ix.pairs {
				if i == j {
					continue
				}
				if interferes(ix, int32(i), int32(j)) && !related(ix, int32(i), int32(j)) {
					want = true
					break
				}
			}
			if inI1[int32(i)] != want {
				t.Fatalf("pair %d: I1 membership %v, brute force %v", i, inI1[int32(i)], want)
			}
		}
	}
}

// Observation 4.11: every classify() C-set is a (∼)-set — no pair of it
// (≁)-interferes with another pair of it.
func TestTypeCIsSimSet(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.LowerBoundParams(3, 4, 6).G,
		gen.RandomConnected(60, 100, 5),
	} {
		_, ix := indexFor(t, g, 0)
		i1, _ := ix.splitI1I2()
		a, b, c := ix.classify(i1)
		if len(a)+len(b)+len(c) != len(i1) {
			t.Fatal("classify does not partition")
		}
		seen := map[int32]int{}
		for _, p := range a {
			seen[p]++
		}
		for _, p := range b {
			seen[p]++
		}
		for _, p := range c {
			seen[p]++
		}
		for p, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("pair %d classified %d times", p, cnt)
			}
		}
		for _, p := range c {
			for _, q := range c {
				if p != q && interferes(ix, p, q) && !related(ix, p, q) {
					t.Fatalf("C-set pairs %d and %d (≁)-interfere", p, q)
				}
			}
		}
	}
}

// classify against the definitions (Eqs. 2–3), in both directions, on every
// Phase S1 iteration: A is exactly the pairs with a π-intersecting
// (≁)-interferer in Pi; B is exactly the non-A pairs with a non-A
// (≁)-interferer; C is the rest. Each list keeps Pi's order.
func TestClassifyDefinitions(t *testing.T) {
	var counts [3]int
	for _, ng := range []namedGraph{
		{"lowerbound-3-4-6", gen.LowerBoundParams(3, 4, 6).G},
		{"lowerbound-2-4-5", gen.LowerBoundParams(2, 4, 5).G},
		{"random-60", gen.RandomConnected(60, 100, 5)},
		{"random-90", gen.RandomConnected(90, 200, 2)},
		{"gnpconnected-60", gen.GNPConnected(60, 0.07, 4)},
		{"grid", gen.Grid(6, 7)},
	} {
		for _, s := range []int{0, ng.g.N() / 3} {
			en, ix := indexFor(t, ng.g, s)
			en.T.Decompose()
			h := en.TreeEdges.Clone()
			pi, _ := ix.splitI1I2()
			for iter := 1; iter <= 4 && len(pi) > 0; iter++ {
				interferer := func(p, q int32) bool {
					return q != p && interferes(ix, p, q) && !related(ix, p, q)
				}
				isA := map[int32]bool{}
				var wantA, wantB, wantC []int32
				for _, p := range pi {
					for _, q := range pi {
						if interferer(p, q) && piOnPath(ix, p, ix.pairs[q].V) {
							isA[p] = true
							wantA = append(wantA, p)
							break
						}
					}
				}
				for _, p := range pi {
					if isA[p] {
						continue
					}
					isB := false
					for _, q := range pi {
						if !isA[q] && interferer(p, q) {
							isB = true
							break
						}
					}
					if isB {
						wantB = append(wantB, p)
					} else {
						wantC = append(wantC, p)
					}
				}
				a, b, c := ix.classify(pi)
				if !slices.Equal(a, wantA) || !slices.Equal(b, wantB) || !slices.Equal(c, wantC) {
					t.Fatalf("%s s=%d iteration %d: A/B/C %v/%v/%v, definition %v/%v/%v",
						ng.name, s, iter, a, b, c, wantA, wantB, wantC)
				}
				counts[0], counts[1], counts[2] = counts[0]+len(a), counts[1]+len(b), counts[2]+len(c)
				pi = runPhase1(ix, h, pi, 1, 1).Leftover
			}
		}
	}
	if counts[0] == 0 || counts[1] == 0 || counts[2] == 0 {
		t.Fatalf("A/B/C totals %v: every type must occur", counts)
	}
	t.Logf("A/B/C totals %v", counts)
}

// π-intersection against the definition: the detour of p meets
// π(LCA(v,t), t) \ {LCA} iff pre(t) lies in U_p (the production test) and
// iff some interior detour vertex is an ancestor of t (the reference's).
func TestPiIntersectsAgainstDefinition(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.RandomConnected(50, 90, 8),
		gen.LowerBoundParams(2, 4, 5).G,
	} {
		en, ix := indexFor(t, g, 0)
		en.T.Decompose()
		ref := newRefScans(ix)
		for i := range ix.pairs {
			p := int32(i)
			v := ix.pairs[p].V
			u := ix.spans[ix.spanOff[p]:ix.spanOff[p+1]]
			for j := 1; j < len(u); j++ {
				if u[j-1].hi > u[j].lo {
					t.Fatalf("pair %d: U_p intervals %v overlap or are unsorted", p, u)
				}
			}
			for t32 := int32(0); t32 < int32(g.N()); t32++ {
				if t32 == v || en.T.Depth[t32] < 0 {
					continue
				}
				want, pre, inU := piOnPath(ix, p, t32), en.T.PreIndex[t32], false
				for _, iv := range u {
					inU = inU || (iv.lo <= pre && pre < iv.hi)
				}
				if got := ref.piIntersects(p, t32); got != want || inU != want {
					t.Fatalf("pair %d terminal %d: piIntersects=%v pre(t) ∈ U_p=%v, definition %v", p, t32, got, inU, want)
				}
			}
		}
	}
}

// groupByTerminal returns a reordered copy of its set: one run per
// terminal in increasing terminal order, each ordered deepest edge first.
func TestGroupByTerminalOrdering(t *testing.T) {
	g := gen.LowerBoundParams(2, 4, 5).G
	en, ix := indexFor(t, g, 0)
	set := make([]int32, len(ix.pairs))
	for i := range set {
		set[i] = int32(len(set) - 1 - i)
	}
	orig := slices.Clone(set)
	sorted := ix.groupByTerminal(set)
	if !slices.Equal(set, orig) {
		t.Fatal("groupByTerminal reordered its argument")
	}
	if !slices.Equal(slices.Sorted(slices.Values(sorted)), slices.Sorted(slices.Values(set))) {
		t.Fatal("runs are not a permutation of the set")
	}
	runs := 0
	for from, to := 0, 0; from < len(sorted); from = to {
		to = ix.runEnd(sorted, from)
		runs++
		v := ix.pairs[sorted[from]].V
		if from > 0 && ix.pairs[sorted[from-1]].V >= v {
			t.Fatal("terminal runs not in increasing terminal order")
		}
		for i := from; i < to; i++ {
			if ix.pairs[sorted[i]].V != v {
				t.Fatal("run contains a foreign pair")
			}
			if i > from && ix.pairs[sorted[i-1]].DistFromV(en.T) >= ix.pairs[sorted[i]].DistFromV(en.T) {
				t.Fatal("run not ordered deepest-edge-first")
			}
		}
	}
	if runs < 2 {
		t.Fatalf("%d terminal runs, want several", runs)
	}
}
