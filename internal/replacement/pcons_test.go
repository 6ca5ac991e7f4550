package replacement

import (
	"fmt"
	"reflect"
	"testing"

	"ftbfs/internal/bfs"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
	"ftbfs/internal/paths"
)

// reference is Algorithm Pcons as the paper states it, one pair at a time
// over full restricted searches of G: the definitional reference for
// computeAllPairs's one search per terminal.
type reference struct {
	en     *Engine
	sc     *bfs.Scratch
	banned *graph.VertexSet
	dist   []int32
}

func newReference(en *Engine) *reference {
	n := en.G.N()
	return &reference{en: en, sc: bfs.NewScratch(n), banned: graph.NewVertexSet(n), dist: make([]int32, n)}
}

// allPairs enumerates the uncovered pairs as AllPairs does (the edge sweep
// and T0's covered test) and builds each one's path with pcons.
func (r *reference) allPairs(t testing.TB) []*Pair {
	var out []*Pair
	r.en.ForEachFailure(func(e graph.EdgeID, child int32, sub, distE []int32) {
		for _, v := range sub {
			if _, covered := r.en.LastEdgeIn(r.en.TreeEdges, v, e, -1, distE); !covered {
				out = append(out, r.pcons(t, v, e, child, distE[v]))
			}
		}
	})
	return out
}

// pcons constructs the canonical new-ending replacement path of the
// uncovered pair ⟨v,e⟩ (Claim 4.4): among all shortest s–v paths in G∖{e},
// the one whose divergence point from π(s,v) is nearest to s. With
// π(s,v) = [u_0=s, …, u_k=v] and e = (u_i, u_{i+1}), let G_j(v) be G
// without the interior of π(u_j, v). dist(s,v,G_j(v)∖{e}) is non-increasing
// in j and never below target = dist(s,v,G∖{e}), so the least j* ≤ i with
// equality is found by binary search. By Observation 3.2 the detour avoids
// π(s,v) but for its endpoints u_{j*} and v: it is the canonical shortest
// u_{j*}–v path in G∖{e} without the rest of π(s,v), searched from v and
// walked back from u_{j*} by min-index predecessors.
func (r *reference) pcons(t testing.TB, v int32, e graph.EdgeID, child, target int32) *Pair {
	en, g := r.en, r.en.G
	pi := pathTo(en.BT, int(v))
	k := len(pi) - 1
	i := int(en.T.Depth[child]) - 1 // e = (u_i, u_{i+1})
	if i < 0 || i >= k || pi[i+1] != child {
		t.Fatalf("edge child %d not on π(s,%d)", child, v)
	}
	search := func(root int32, banned []int32) []int32 {
		r.banned.Clear()
		for _, u := range banned {
			r.banned.Add(u)
		}
		return r.sc.DistancesAvoiding(g, int(root), bfs.Restriction{BannedEdge: e, BannedVertices: r.banned}, r.dist)
	}
	lo, hi := 0, i
	for lo < hi {
		if mid := (lo + hi) / 2; search(int32(en.S), pi[mid+1:k])[v] == target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if search(int32(en.S), pi[lo+1:k])[v] != target {
		t.Fatalf("no unique-divergence replacement path for ⟨%d,%v⟩", v, g.EdgeByID(e))
	}
	d := pi[lo]
	rest := append(append([]int32(nil), pi[:lo]...), pi[lo+1:k]...)
	dist := search(v, rest)
	if dist[d] == bfs.Unreachable || int32(lo)+dist[d] != target {
		t.Fatalf("detour of ⟨%d,%v⟩ from %d: length %d, prefix %d, target %d", v, g.EdgeByID(e), d, dist[d], lo, target)
	}
	detour := paths.Path{d}
	for x := d; dist[x] > 0; detour = append(detour, x) {
		for _, a := range g.Neighbors(int(x)) {
			if a.ID != e && dist[a.To] == dist[x]-1 {
				x = a.To
				break
			}
		}
	}
	last := detour.LastEdge()
	lastID := g.EdgeIDOf(int(last.U), int(last.V))
	if en.TreeEdges.Contains(lastID) {
		t.Fatalf("uncovered pair ⟨%d,%v⟩ has a T0 last edge", v, g.EdgeByID(e))
	}
	return &Pair{V: v, Edge: e, EdgeChild: child, Dist: target, Div: d, Detour: detour, LastID: lastID}
}

// matchReference checks AllPairs against the reference, pair for pair, in
// the same order and on every field, and returns AllPairs.
func matchReference(t *testing.T, name string, en *Engine) []*Pair {
	t.Helper()
	want, got := newReference(en).allPairs(t), en.AllPairs()
	if len(got) != len(want) {
		t.Fatalf("%s s=%d: %d pairs, reference %d", name, en.S, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s s=%d: pair %d is %+v, reference %+v", name, en.S, i, *got[i], *want[i])
		}
	}
	return got
}

// pconsCorpus is sweepCorpus plus random, GNP (some disconnected),
// lower-bound, grid, hypercube, clique-chain, torus and random-regular
// graphs, and perfbench's fixture generator at its size.
func pconsCorpus() map[string]*graph.Graph {
	c := sweepCorpus()
	for i := 0; i < 20; i++ {
		n := 20 + 9*i
		c[fmt.Sprintf("random-%d-%d", n, i)] = randomConnected(n, n*(1+i%3), int64(100+i))
	}
	for i, p := range []float64{0.04, 0.06, 0.08, 0.1, 0.15, 0.2, 0.3, 0.5} {
		c[fmt.Sprintf("gnp-%g", p)] = gen.GNP(40+10*i, p, int64(200+i))
	}
	c["lowerbound-1198"] = gen.LowerBound(1198, 0.42).G
	c["lowerbound-2-4-5"] = gen.LowerBoundParams(2, 4, 5).G
	c["grid"] = gen.Grid(7, 9)
	c["hypercube"] = gen.Hypercube(6)
	c["cliquechain"] = gen.CliqueChain(14)
	c["torus"] = gen.Torus(6, 8)
	c["regular"] = gen.RandomRegular(80, 4, 7)
	c["fixture"] = gen.RandomConnected(400, 1200, 9)
	return c
}

// The per-terminal search must return exactly Algorithm Pcons's pairs.
func TestAllPairsMatchesPcons(t *testing.T) {
	graphs, pairs := 0, 0
	for name, g := range pconsCorpus() {
		graphs++
		for _, s := range []int{0, g.N() / 3, g.N() - 1} {
			pairs += len(matchReference(t, name, NewEngine(g, s)))
		}
	}
	if graphs < 40 {
		t.Fatalf("corpus has %d graphs, want at least 40", graphs)
	}
	t.Logf("%d graphs × 3 sources: %d uncovered pairs match the reference", graphs, pairs)
}

// pairOf returns the uncovered pair ⟨v, {a,b}⟩, failing the test if there is
// none.
func pairOf(t *testing.T, en *Engine, pairs []*Pair, v int32, a, b int) *Pair {
	t.Helper()
	e := en.G.EdgeIDOf(a, b)
	for _, p := range pairs {
		if p.V == v && p.Edge == e {
			return p
		}
	}
	t.Fatalf("no uncovered pair ⟨%d,{%d,%d}⟩ in %d pairs", v, a, b, len(pairs))
	return nil
}

func graphOf(n int, edges ...[2]int) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.Add(e[0], e[1])
	}
	return b.Graph()
}

// j* = k−1: failing v's own tree edge {1,2}, the detour leaves u_{k−1} = 1
// for 3. The search must skip the tree edge at j = k−1, which would
// otherwise read as a one-edge detour.
func TestPconsDivergesAtParent(t *testing.T) {
	g := graphOf(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{1, 3}, [2]int{3, 2})
	en := NewEngine(g, 0)
	p := pairOf(t, en, matchReference(t, "parent", en), 2, 1, 2)
	if p.Div != 1 || !reflect.DeepEqual(p.Detour, paths.Path{1, 3, 2}) || p.Dist != 3 {
		t.Fatalf("pair ⟨2,{1,2}⟩: Div %d, Detour %v, Dist %d; want 1, [1 3 2], 3", p.Div, p.Detour, p.Dist)
	}
}

// j* = 0: on a 6-cycle, failing {0,1} sends the antipode's detour from s
// the other way round.
func TestPconsDivergesAtSource(t *testing.T) {
	en := NewEngine(gen.Cycle(6), 0)
	p := pairOf(t, en, matchReference(t, "cycle", en), 3, 0, 1)
	if p.Div != 0 || !reflect.DeepEqual(p.Detour, paths.Path{0, 5, 4, 3}) {
		t.Fatalf("pair ⟨3,{0,1}⟩: Div %d, Detour %v; want 0, [0 5 4 3]", p.Div, p.Detour)
	}
}

// One terminal, three uncovered pairs at two targets from one search.
// π(0,3) = 0-1-2-3; failing {0,1} leaves by 0-4-5-6-3 (target 4), failing
// {1,2} or {2,3} by 1-7-3 (target 3).
func TestPconsOneSearchServesEveryPairOfATerminal(t *testing.T) {
	g := graphOf(8, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3},
		[2]int{0, 4}, [2]int{4, 5}, [2]int{5, 6}, [2]int{6, 3}, [2]int{1, 7}, [2]int{7, 3})
	en := NewEngine(g, 0)
	pairs := matchReference(t, "terminal", en)
	for _, tc := range []struct {
		a, b   int
		dist   int32
		detour paths.Path
	}{
		{0, 1, 4, paths.Path{0, 4, 5, 6, 3}},
		{1, 2, 3, paths.Path{1, 7, 3}},
		{2, 3, 3, paths.Path{1, 7, 3}},
	} {
		p := pairOf(t, en, pairs, 3, tc.a, tc.b)
		if p.Dist != tc.dist || !reflect.DeepEqual(p.Detour, tc.detour) {
			t.Fatalf("pair ⟨3,{%d,%d}⟩: Dist %d, Detour %v; want %d, %v", tc.a, tc.b, p.Dist, p.Detour, tc.dist, tc.detour)
		}
	}
}

// The search from v stops at v's largest target. Here v = 3's one
// uncovered pair ⟨3,{2,3}⟩ has target 4 (0-1-2-8-3), and the tail
// 0-4-5-6-7-3 puts s's neighbour 4 at D = 4, past the bound.
func TestPconsSearchCutByBound(t *testing.T) {
	g := graphOf(9, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{2, 8}, [2]int{8, 3},
		[2]int{0, 4}, [2]int{4, 5}, [2]int{5, 6}, [2]int{6, 7}, [2]int{7, 3}, [2]int{1, 5})
	en := NewEngine(g, 0)
	pairs := matchReference(t, "bound", en)
	p := pairOf(t, en, pairs, 3, 2, 3)
	if p.Dist != 4 || p.Div != 2 || !reflect.DeepEqual(p.Detour, paths.Path{2, 8, 3}) {
		t.Fatalf("pair ⟨3,{2,3}⟩: Dist %d, Div %d, Detour %v; want 4, 2, [2 8 3]", p.Dist, p.Div, p.Detour)
	}
	for _, q := range pairs {
		if q.V == 3 && q != p {
			t.Fatalf("terminal 3 has a second uncovered pair ⟨3,%v⟩", g.EdgeByID(q.Edge))
		}
	}
	banned := graph.NewVertexSet(g.N())
	for _, u := range []int32{0, 1, 2} {
		banned.Add(u)
	}
	d := bfs.NewScratch(g.N()).DistancesAvoiding(g, 3, bfs.Restriction{BannedEdge: graph.NoEdge, BannedVertices: banned}, make([]int32, g.N()))
	if d[4] != p.Dist {
		t.Fatalf("D(4) = %d, want the bound %d", d[4], p.Dist)
	}
}

// A source that cannot reach part of the graph: no terminal outside its
// component, and the searches never leave it.
func TestPconsDisconnectedSource(t *testing.T) {
	g := sweepCorpus()["disconnected"]
	for _, s := range []int{0, 29, 30, 49} {
		en := NewEngine(g, s)
		pairs := matchReference(t, "disconnected", en)
		if len(pairs) == 0 {
			t.Fatalf("s=%d: no uncovered pairs", s)
		}
		for _, p := range pairs {
			for _, x := range p.Detour {
				if en.BT.Dist[x] == bfs.Unreachable {
					t.Fatalf("s=%d: detour of ⟨%d,%v⟩ reaches %d outside s's component", s, p.V, g.EdgeByID(p.Edge), x)
				}
			}
		}
	}
}
