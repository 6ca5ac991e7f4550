// Package replacement computes single-failure replacement paths: for a
// source s, a terminal v and a failing tree edge e ∈ π(s,v), the canonical
// shortest s–v path in G \ {e}. It implements Phase S0 of the paper
// (Algorithm Pcons), including the classification of vertex-edge pairs into
// covered pairs (a replacement path can reuse a T0 last edge) and uncovered
// pairs (the path is new-ending), and the extraction of detour segments.
package replacement

import (
	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
	"ftbfs/internal/paths"
	"ftbfs/internal/tree"
)

// Pair is an uncovered vertex-edge pair ⟨v,e⟩ together with its canonical
// new-ending replacement path P_{v,e} in decomposed form
// P = π(s, Div) ◦ Detour (Observation 3.2).
type Pair struct {
	V         int32        // terminal
	Edge      graph.EdgeID // failing tree edge e ∈ π(s,v)
	EdgeChild int32        // deeper endpoint of e (edges point away from s)
	Dist      int32        // |P| = dist(s, v, G\{e})
	Div       int32        // unique divergence point d(P) ∈ π(s,v)
	Detour    paths.Path   // Detour[0]=Div … Detour[last]=V; interior avoids π(s,v)
	LastID    graph.EdgeID // id of LastE(P) — never a T0 edge
}

// LastEdge returns LastE(P_{v,e}).
func (p *Pair) LastEdge() graph.Edge { return p.Detour.LastEdge() }

// DistFromV returns dist(v, e, π(s,v)) — the ordering key used by Phase S1
// ("increasing distance of the failing edge from v" = deepest edge first).
func (p *Pair) DistFromV(t *tree.Tree) int32 {
	return t.Depth[p.V] - t.Depth[p.EdgeChild]
}

// Engine bundles everything Phases S0–S2 need about (G, s): the canonical
// BFS tree, the rooted-tree structure, and reusable scratch space for the
// per-failure searches. An Engine is not safe for concurrent use.
type Engine struct {
	G  *graph.Graph
	S  int
	BT *bfs.Tree
	T  *tree.Tree

	TreeEdges *graph.EdgeSet // edges of T0

	sc     *bfs.Scratch     // Pcons's restricted searches
	banned *graph.VertexSet // Pcons's removed path interiors

	// The failure sweep repairs each failed subtree over the engine's own
	// CSR of G (not the graph's cached view, which would outlive the
	// engine on every graph a structure keeps). distE holds the intact
	// distances, with the repaired ones of the subtree sub while fn runs.
	csr    *graph.CSR
	repair *bfs.Repair
	distE  []int32
	sub    []int32

	pairs      []*Pair // memoised AllPairs result; valid while pairsReady
	pairsReady bool
}

// NewEngine builds the engine for (g, s). g must be frozen.
func NewEngine(g *graph.Graph, s int) *Engine {
	en := &Engine{
		G:      g,
		sc:     bfs.NewScratch(g.N()),
		banned: graph.NewVertexSet(g.N()),
		csr:    g.SubgraphCSR(nil),
		repair: bfs.NewRepair(g.N()),
		distE:  make([]int32, g.N()),
	}
	en.Reset(s)
	return en
}

// Reset rebinds the engine to a new source on the same graph, recomputing the
// canonical trees but recycling the CSR of G and every scratch allocation
// (BFS scratch, repair scratch, distance array, banned-vertex set). The
// AllPairs memo is invalidated. Batch builders use this to amortise the scratch across one
// worker's whole stream of sources.
func (en *Engine) Reset(s int) {
	bt := bfs.From(en.G, s)
	en.S = s
	en.BT = bt
	en.T = tree.Build(en.G, bt)
	en.TreeEdges = bt.EdgeSet(en.G.M())
	copy(en.distE, bt.Dist)
	en.pairs = nil
	en.pairsReady = false
}

// ForEachFailure iterates over every tree edge e (every failure that can
// change distances), in increasing order of its child endpoint, invoking
// fn(e, child endpoint, sub, distE): sub is the subtree of the child (the
// terminals whose tree path uses e, in SubtreeOf order) and distE holds
// dist(s, ·, G\{e}). Failing e changes distances only inside sub, so each
// call repairs just that subtree (bfs.Repair): O(Σ_{v ∈ sub} deg(v)) per
// edge instead of a search of all of G. Both slices are reused between
// calls: fn must not retain or modify them.
func (en *Engine) ForEachFailure(fn func(e graph.EdgeID, child int32, sub, distE []int32)) {
	for v := 0; v < en.G.N(); v++ {
		id := en.BT.ParentEdge[v]
		if id == graph.NoEdge {
			continue
		}
		en.sub = en.SubtreeOf(int32(v), en.sub[:0])
		en.repair.Run(en.csr, en.BT.Dist, en.sub, id, -1)
		for _, w := range en.sub {
			en.distE[w] = en.repair.Dist(w)
		}
		fn(id, int32(v), en.sub, en.distE)
		for _, w := range en.sub {
			en.distE[w] = en.BT.Dist[w]
		}
	}
}

// SubtreeOf appends to out all vertices in the subtree rooted at c (the
// terminals v with e ∈ π(s,v) for the edge whose child endpoint is c).
func (en *Engine) SubtreeOf(c int32, out []int32) []int32 {
	out = append(out, c)
	for head := len(out) - 1; head < len(out); head++ {
		for _, ch := range en.T.Children(out[head]) {
			out = append(out, ch)
		}
	}
	return out
}

// CoveredBy reports whether ⟨v,e⟩ is covered, returning a certifying T0
// last edge when one exists: an edge (u,v) ∈ T0, different from e, with
// dist(s,u,G\{e})+1 = dist(s,v,G\{e}). Pairs with v unreachable in G\{e}
// are vacuously covered (nothing to protect, certificate NoEdge). distE
// must be the distance array for failure e.
func (en *Engine) CoveredBy(v int32, e graph.EdgeID, distE []int32) (graph.EdgeID, bool) {
	target := distE[v]
	if target == bfs.Unreachable {
		return graph.NoEdge, true // vacuously protected: e disconnects v
	}
	for _, a := range en.G.Neighbors(int(v)) {
		if a.ID == e || !en.TreeEdges.Contains(a.ID) {
			continue
		}
		if distE[a.To] != bfs.Unreachable && distE[a.To]+1 == target {
			return a.ID, true
		}
	}
	return graph.NoEdge, false
}

// AllPairs enumerates every vertex-edge pair ⟨v,e⟩ with e ∈ π(s,v) and
// returns the uncovered ones with their canonical replacement paths. The
// returned slice is ordered by failing edge (outer) and terminal (inner),
// which downstream phases re-sort as needed. The result is memoised until the
// next Reset, so builders sharing an engine for several ε values on the same
// source pay for Phase S0 once; callers must treat it as read-only.
func (en *Engine) AllPairs() []*Pair {
	if !en.pairsReady {
		en.pairs = en.computeAllPairs()
		en.pairsReady = true
	}
	return en.pairs
}

func (en *Engine) computeAllPairs() []*Pair {
	var out []*Pair
	en.ForEachFailure(func(e graph.EdgeID, child int32, sub, distE []int32) {
		for _, v := range sub {
			// CoveredBy also reports vacuous pairs (v unreachable in
			// G\{e}) as covered: there is nothing to protect.
			if _, covered := en.CoveredBy(v, e, distE); covered {
				continue
			}
			out = append(out, en.Pcons(v, e, child, distE[v]))
		}
	})
	return out
}

// UncoveredCount returns the number of uncovered pairs without materialising
// their paths. Only tests call it, as a cross-check of AllPairs's covered
// and uncovered split.
func (en *Engine) UncoveredCount() int {
	count := 0
	en.ForEachFailure(func(e graph.EdgeID, child int32, sub, distE []int32) {
		for _, v := range sub {
			if _, covered := en.CoveredBy(v, e, distE); !covered {
				count++
			}
		}
	})
	return count
}
