package replacement

import (
	"math/rand"
	"testing"

	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
	"ftbfs/internal/paths"
)

// bruteDistAvoiding computes dist(s,v,G\{e}) by rebuilding the graph.
func bruteDistAvoiding(g *graph.Graph, s int, e graph.EdgeID) []int32 {
	b := graph.NewBuilder(g.N())
	for id, ed := range g.Edges() {
		if graph.EdgeID(id) != e {
			b.Add(int(ed.U), int(ed.V))
		}
	}
	return bfs.From(b.Graph(), s).Dist
}

// pathTo returns the canonical shortest path π(s,v) of bt as a vertex
// sequence from the source to v.
func pathTo(bt *bfs.Tree, v int) []int32 {
	path := make([]int32, bt.Dist[v]+1)
	for i, x := len(path)-1, int32(v); i >= 0; i, x = i-1, bt.Parent[x] {
		path[i] = x
	}
	return path
}

// fullPath reconstructs the complete replacement path π(s,Div)◦Detour of p.
func fullPath(en *Engine, p *Pair) paths.Path {
	return paths.Concat(paths.Path(pathTo(en.BT, int(p.Div))), p.Detour)
}

func randomConnected(n, extra int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.Add(i, rng.Intn(i))
	}
	for k := 0; k < extra; k++ {
		b.Add(rng.Intn(n), rng.Intn(n))
	}
	return b.Graph()
}

func TestForEachFailureDistances(t *testing.T) {
	g := randomConnected(30, 40, 3)
	en := NewEngine(g, 0)
	count := 0
	en.ForEachFailure(func(e graph.EdgeID, child int32, sub, distE []int32) {
		count++
		want := bruteDistAvoiding(g, 0, e)
		for v := range want {
			if distE[v] != want[v] {
				t.Fatalf("edge %v: dist[%d]=%d want %d", g.EdgeByID(e), v, distE[v], want[v])
			}
		}
		if en.BT.ParentEdge[child] != e {
			t.Fatal("child endpoint mismatch")
		}
	})
	if count != g.N()-1 {
		t.Fatalf("visited %d failures, want n-1=%d", count, g.N()-1)
	}
}

func TestCoveredByBridge(t *testing.T) {
	// path graph: every tree edge is a bridge ⇒ all pairs vacuously covered.
	b := graph.NewBuilder(5)
	b.AddPath(0, 1, 2, 3, 4)
	g := b.Graph()
	en := NewEngine(g, 0)
	if pairs := en.AllPairs(); len(pairs) != 0 {
		t.Fatalf("path graph has %d uncovered pairs, want 0", len(pairs))
	}
}

func TestCycleSinglePair(t *testing.T) {
	// 6-cycle from source 0: failing edge {0,1} forces v=1..? BFS tree from 0
	// on cycle 0-1-2-3-4-5: dists 0,1,2,3,2,1.
	n := 6
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, (i+1)%n)
	}
	g := b.Graph()
	en := NewEngine(g, 0)
	pairs := en.AllPairs()
	// Every replacement path goes the other way round the cycle; its last
	// edge is a tree edge except when the detour must end at the antipode.
	for _, p := range pairs {
		full := fullPath(en, p)
		if err := full.ValidateOn(g); err != nil {
			t.Fatalf("invalid path: %v", err)
		}
		want := bruteDistAvoiding(g, 0, p.Edge)[p.V]
		if int32(full.Len()) != want {
			t.Fatalf("pair ⟨%d,%v⟩ length %d want %d", p.V, g.EdgeByID(p.Edge), full.Len(), want)
		}
	}
}

// The master correctness test: on random graphs, enumerate all pairs and
// check the engine's covered/uncovered classification and every canonical
// path property the construction relies on.
func TestAllPairsProperties(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomConnected(40, 60, seed)
		en := NewEngine(g, 0)
		pairSet := map[[2]int32]*Pair{}
		for _, p := range en.AllPairs() {
			pairSet[[2]int32{p.V, int32(p.Edge)}] = p
		}
		en.ForEachFailure(func(e graph.EdgeID, child int32, sub, distE []int32) {
			want := bruteDistAvoiding(g, 0, e)
			onSub := map[int32]bool{}
			for _, v := range sub {
				onSub[v] = true
			}
			for v := int32(0); v < int32(g.N()); v++ {
				p, isUncovered := pairSet[[2]int32{v, int32(e)}]
				if !onSub[v] {
					if isUncovered {
						t.Fatalf("pair for v=%d not in subtree of e=%v", v, g.EdgeByID(e))
					}
					continue
				}
				// covered ⟺ some T0 edge (u,v) attains want[v] via want[u]+1
				hasTreeLast := false
				if want[v] != bfs.Unreachable {
					for _, a := range g.Neighbors(int(v)) {
						if a.ID != e && en.TreeEdges.Contains(a.ID) &&
							want[a.To] != bfs.Unreachable && want[a.To]+1 == want[v] {
							hasTreeLast = true
							break
						}
					}
				} else {
					hasTreeLast = true // vacuous
				}
				if hasTreeLast == isUncovered {
					t.Fatalf("seed %d: pair ⟨%d,%v⟩ covered=%v but engine says uncovered=%v",
						seed, v, g.EdgeByID(e), hasTreeLast, isUncovered)
				}
				if !isUncovered {
					continue
				}
				// canonical path properties
				if p.Dist != want[v] {
					t.Fatalf("pair dist %d want %d", p.Dist, want[v])
				}
				full := fullPath(en, p)
				if err := full.ValidateOn(g); err != nil {
					t.Fatalf("invalid canonical path: %v", err)
				}
				if int32(full.Len()) != want[v] {
					t.Fatalf("path length %d want %d", full.Len(), want[v])
				}
				// avoids e
				ed := g.EdgeByID(e)
				for i := 0; i+1 < len(full); i++ {
					if (full[i] == ed.U && full[i+1] == ed.V) || (full[i] == ed.V && full[i+1] == ed.U) {
						t.Fatalf("path traverses the failed edge %v", ed)
					}
				}
				// new-ending: last edge not in T0
				if en.TreeEdges.Contains(p.LastID) {
					t.Fatal("uncovered pair with tree last edge")
				}
				// Observation 3.2: detour interior avoids π(s,v)
				pi := pathTo(en.BT, int(v))
				onPi := map[int32]bool{}
				for _, x := range pi {
					onPi[x] = true
				}
				if p.Detour.First() != p.Div || p.Detour.Last() != v {
					t.Fatal("detour endpoints wrong")
				}
				for _, x := range p.Detour[1 : len(p.Detour)-1] {
					if onPi[x] {
						t.Fatalf("detour interior touches π(s,v) at %d", x)
					}
				}
				// Claim 4.4(2): no replacement path with divergence strictly
				// above Div. Check: banning the path interior below any
				// strictly higher u_j yields a strictly longer distance.
				jstar := int(en.T.Depth[p.Div])
				if jstar > 0 {
					j := jstar - 1
					banned := graph.NewVertexSet(g.N())
					for tt := j + 1; tt < len(pi)-1; tt++ {
						banned.Add(pi[tt])
					}
					d := bfs.NewScratch(g.N()).DistancesAvoiding(g, 0,
						bfs.Restriction{BannedEdge: e, BannedVertices: banned}, make([]int32, g.N()))
					if d[v] == want[v] {
						t.Fatalf("seed %d: divergence point of ⟨%d,%v⟩ not minimal (j*=%d but j=%d works)",
							seed, v, g.EdgeByID(e), jstar, j)
					}
				}
			}
		})
	}
}

// uncoveredCount counts the pairs T0's covered test leaves uncovered,
// without building their paths: a cross-check of AllPairs's covered and
// uncovered split.
func uncoveredCount(en *Engine) int {
	count := 0
	en.ForEachFailure(func(e graph.EdgeID, child int32, sub, distE []int32) {
		for _, v := range sub {
			if _, covered := en.LastEdgeIn(en.TreeEdges, v, e, -1, distE); !covered {
				count++
			}
		}
	})
	return count
}

func TestUncoveredCountMatchesAllPairs(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomConnected(35, 45, seed)
		en := NewEngine(g, 0)
		if got, want := uncoveredCount(en), len(en.AllPairs()); got != want {
			t.Fatalf("seed %d: uncoveredCount=%d, AllPairs=%d", seed, got, want)
		}
	}
}

// Claim 4.6(1): a detour is at least as long as the failing edge's distance
// from v along π(s,v).
func TestDetourLengthLowerBound(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomConnected(40, 50, seed)
		en := NewEngine(g, 0)
		for _, p := range en.AllPairs() {
			if int32(p.Detour.Len()) < p.DistFromV(en.T) {
				t.Fatalf("detour of ⟨%d,%v⟩ has length %d < dist-from-v %d",
					p.V, g.EdgeByID(p.Edge), p.Detour.Len(), p.DistFromV(en.T))
			}
		}
	}
}

// Determinism: two engines over the same graph produce identical pairs.
func TestEngineDeterminism(t *testing.T) {
	g := randomConnected(30, 40, 11)
	a := NewEngine(g, 0).AllPairs()
	b := NewEngine(g, 0).AllPairs()
	if len(a) != len(b) {
		t.Fatalf("pair counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].V != b[i].V || a[i].Edge != b[i].Edge || a[i].LastID != b[i].LastID || a[i].Div != b[i].Div {
			t.Fatalf("pair %d differs", i)
		}
		for j := range a[i].Detour {
			if a[i].Detour[j] != b[i].Detour[j] {
				t.Fatalf("detour %d differs", i)
			}
		}
	}
}

func TestFullPathPrefixIsTreePath(t *testing.T) {
	g := randomConnected(40, 60, 5)
	en := NewEngine(g, 0)
	for _, p := range en.AllPairs() {
		full := fullPath(en, p)
		prefix := paths.Path(pathTo(en.BT, int(p.Div)))
		for i := range prefix {
			if full[i] != prefix[i] {
				t.Fatal("full path does not start with π(s,Div)")
			}
		}
	}
}

func TestResetMatchesFreshEngine(t *testing.T) {
	g := randomConnected(50, 80, 9)
	en := NewEngine(g, 0)
	first := en.AllPairs()
	if len(first) == 0 {
		t.Fatal("expected uncovered pairs on the random graph")
	}
	if &first[0] != &en.AllPairs()[0] {
		t.Fatal("AllPairs is not memoised")
	}
	for _, s := range []int{7, 21, 0} {
		en.Reset(s)
		fresh := NewEngine(g, s)
		if en.S != fresh.S || en.BT.Source != fresh.BT.Source {
			t.Fatalf("source %d not installed", s)
		}
		a, b := en.AllPairs(), fresh.AllPairs()
		if len(a) != len(b) {
			t.Fatalf("source %d: pair counts differ after Reset: %d vs %d", s, len(a), len(b))
		}
		for i := range a {
			if a[i].V != b[i].V || a[i].Edge != b[i].Edge || a[i].LastID != b[i].LastID {
				t.Fatalf("source %d: pair %d differs after Reset", s, i)
			}
		}
		if en.TreeEdges.Len() != fresh.TreeEdges.Len() {
			t.Fatalf("source %d: tree edges differ after Reset", s)
		}
	}
}

func TestResetInvalidatesPairsMemo(t *testing.T) {
	g := randomConnected(40, 60, 4)
	en := NewEngine(g, 5)
	before := len(en.AllPairs())
	en.Reset(5) // same source: memo must be recomputed, result unchanged
	if en.pairsReady {
		t.Fatal("Reset did not invalidate the AllPairs memo")
	}
	if after := len(en.AllPairs()); after != before {
		t.Fatalf("pair count changed across Reset to the same source: %d vs %d", after, before)
	}
}
