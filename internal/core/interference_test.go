package core

import (
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
				if interferes(ix, int32(i), int32(j)) && !ix.related(int32(i), int32(j)) {
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
				if p != q && interferes(ix, p, q) && !ix.related(p, q) {
					t.Fatalf("C-set pairs %d and %d (≁)-interfere", p, q)
				}
			}
		}
	}
}

// Type B pairs must (≁)-interfere with some non-A pair; type A pairs must
// π-intersect some interfering pair of the set.
func TestClassifyDefinitions(t *testing.T) {
	g := gen.LowerBoundParams(3, 4, 6).G
	_, ix := indexFor(t, g, 0)
	i1, _ := ix.splitI1I2()
	a, b, _ := ix.classify(i1)
	inA := map[int32]bool{}
	for _, p := range a {
		inA[p] = true
	}
	inSet := map[int32]bool{}
	for _, p := range i1 {
		inSet[p] = true
	}
	for _, p := range a {
		found := false
		for _, q := range i1 {
			if q != p && interferes(ix, p, q) && !ix.related(p, q) &&
				ix.piIntersects(p, ix.pairs[q].V) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("type-A pair %d has no π-intersecting interferer", p)
		}
	}
	for _, p := range b {
		found := false
		for _, q := range i1 {
			if q != p && !inA[q] && interferes(ix, p, q) && !ix.related(p, q) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("type-B pair %d has no non-A interferer", p)
		}
	}
}

// π-intersection against the definition: the detour of p meets
// π(LCA(v,t), t) \ {LCA}.
func TestPiIntersectsAgainstDefinition(t *testing.T) {
	g := gen.RandomConnected(50, 90, 8)
	en, ix := indexFor(t, g, 0)
	en.T.Decompose() // LCA ascends the Fact 3.3 paths; the engine keeps only ancestry
	for i := range ix.pairs {
		p := int32(i)
		v := ix.pairs[p].V
		for t32 := int32(0); t32 < int32(g.N()); t32++ {
			if t32 == v || en.T.Depth[t32] < 0 {
				continue
			}
			// brute force: walk π(s,t) below LCA(v,t)
			lca := en.T.LCA(v, t32)
			onSeg := map[int32]bool{}
			for x := t32; x != lca && x >= 0; x = en.T.Parent[x] {
				onSeg[x] = true
			}
			want := false
			for _, z := range ix.pairs[p].Detour {
				if onSeg[z] {
					want = true
					break
				}
			}
			if got := ix.piIntersects(p, t32); got != want {
				t.Fatalf("pair %d terminal %d: piIntersects=%v brute=%v", p, t32, got, want)
			}
		}
	}
}

func TestGroupByTerminalOrdering(t *testing.T) {
	g := gen.LowerBoundParams(2, 4, 5).G
	en, ix := indexFor(t, g, 0)
	all := make([]int32, len(ix.pairs))
	for i := range all {
		all[i] = int32(i)
	}
	terminals, buckets := ix.groupByTerminal(all)
	for i := 1; i < len(terminals); i++ {
		if terminals[i-1] >= terminals[i] {
			t.Fatal("terminals not sorted")
		}
	}
	total := 0
	for _, v := range terminals {
		b := buckets[v]
		total += len(b)
		for i := 1; i < len(b); i++ {
			if ix.pairs[b[i-1]].DistFromV(en.T) > ix.pairs[b[i]].DistFromV(en.T) {
				t.Fatal("bucket not ordered deepest-edge-first")
			}
		}
		for _, p := range b {
			if ix.pairs[p].V != v {
				t.Fatal("bucket contains foreign pair")
			}
		}
	}
	if total != len(all) {
		t.Fatal("buckets lose pairs")
	}
}
