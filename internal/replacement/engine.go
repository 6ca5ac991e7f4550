// Package replacement computes single-failure replacement paths: for a
// source s, a terminal v and a failing tree edge e ∈ π(s,v), the canonical
// shortest s–v path in G \ {e}. It implements Phase S0 of the paper
// (Algorithm Pcons), including the classification of vertex-edge pairs into
// covered pairs (a replacement path can reuse a T0 last edge) and uncovered
// pairs (the path is new-ending), and the extraction of detour segments.
//
// Its Engine also owns the one failure sweep of both failure models: the
// edge sweep (every tree edge) and the vertex sweep (every internal tree
// vertex but s) share one repair-and-restore loop over the failed subtree
// and one last-edge probe, which the edge construction's reinforcement
// rule and the vertex construction (internal/vertexft) both run on.
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

// Engine bundles everything Phases S0–S2 and the vertex construction need
// about (G, s): the canonical BFS tree, its ancestry (T; Phase S2 adds the
// Fact 3.3 decomposition through T.Decompose on first use), and reusable
// scratch space for the per-failure searches. It runs the one failure sweep
// of both failure models (ForEachFailure, ForEachVertexFailure) and the one
// last-edge probe (LastEdgeIn) that the edge reinforcement rule, Phase S0's
// covered test and the vertex construction share. An Engine is not safe for
// concurrent use.
type Engine struct {
	G  *graph.Graph
	S  int
	BT *bfs.Tree
	T  *tree.Tree

	TreeEdges *graph.EdgeSet // edges of T0

	// Pcons's restricted searches and removed path interiors, allocated by
	// the first Pcons call: a vertex or Tree build never runs one.
	sc     *bfs.Scratch
	banned *graph.VertexSet

	// The failure sweep repairs each failed subtree over the engine's own
	// CSR of G (not the graph's cached view, which would outlive the
	// engine on every graph a structure keeps). distE holds the intact
	// distances, with the repaired ones of the failed subtree while a
	// sweep's callback runs.
	csr    *graph.CSR
	repair *bfs.Repair
	distE  []int32

	pairs      []*Pair // memoised AllPairs result; valid while pairsReady
	pairsReady bool
}

// NewEngine builds the engine for (g, s). g must be frozen.
func NewEngine(g *graph.Graph, s int) *Engine {
	en := &Engine{
		G:      g,
		csr:    g.SubgraphCSR(nil),
		repair: bfs.NewRepair(g.N()),
		distE:  make([]int32, g.N()),
	}
	en.Reset(s)
	return en
}

// Reset rebinds the engine to a new source on the same graph, recomputing the
// canonical tree and its ancestry but recycling the CSR of G and every
// scratch allocation (BFS scratch, repair scratch, distance array,
// banned-vertex set). The AllPairs memo is invalidated. Batch builders use
// this to amortise the scratch across one worker's whole stream of sources.
func (en *Engine) Reset(s int) {
	bt := bfs.From(en.G, s)
	en.S = s
	en.BT = bt
	en.T = tree.BuildAncestry(en.G.N(), bt)
	en.TreeEdges = bt.EdgeSet(en.G.M())
	copy(en.distE, bt.Dist)
	en.pairs = nil
	en.pairsReady = false
}

// ForEachFailure iterates over every tree edge e (every edge failure that
// can change distances), in increasing order of its child endpoint,
// invoking fn(e, child endpoint, sub, distE): sub is the subtree of the
// child (the terminals whose tree path uses e) in preorder, and distE holds
// dist(s, ·, G\{e}). Both slices are shared with the engine: fn must not
// retain or modify them.
func (en *Engine) ForEachFailure(fn func(e graph.EdgeID, child int32, sub, distE []int32)) {
	en.sweep(false, func(child int32, sub, distE []int32) {
		fn(en.BT.ParentEdge[child], child, sub, distE)
	})
}

// ForEachVertexFailure iterates over every vertex failure that can change
// distances — every vertex w ≠ s of T0 with children — in increasing order
// of w, invoking fn(w, sub, distE): sub is the strict descendants of w in
// preorder, and distE holds dist(s, ·, G\{w}) at every vertex but w (which
// keeps its intact distance; a caller scanning arcs skips the failed vertex,
// as LastEdgeIn does). The slices are shared as in ForEachFailure.
func (en *Engine) ForEachVertexFailure(fn func(w int32, sub, distE []int32)) {
	en.sweep(true, fn)
}

// sweep is the one failure loop of both models. For every vertex x in
// increasing order it fails x's parent edge (vertex false) or x itself
// (vertex true). Either failure changes distances only inside the subtree
// hanging below it — x's subtree, or x's strict descendants — so sweep
// repairs just that slice of T's preorder (bfs.Repair):
// O(Σ_{v ∈ sub} deg(v)) per failure instead of a search of all of G. It
// hands the repaired distances to fn and restores the intact ones after.
func (en *Engine) sweep(vertex bool, fn func(x int32, sub, distE []int32)) {
	for x := int32(0); x < int32(en.G.N()); x++ {
		sub := en.T.Subtree(x) // empty for a vertex s cannot reach
		e, w := en.BT.ParentEdge[x], int32(-1)
		if vertex {
			if x == int32(en.S) || len(sub) < 2 {
				continue // the source never fails; a leaf strands nobody
			}
			sub, e, w = sub[1:], graph.NoEdge, x
		} else if e == graph.NoEdge {
			continue // the source or unreachable: no tree edge above x
		}
		en.repair.Run(en.csr, en.BT.Dist, sub, e, w)
		for _, v := range sub {
			en.distE[v] = en.repair.Dist(v)
		}
		fn(x, sub, en.distE)
		for _, v := range sub {
			en.distE[v] = en.BT.Dist[v]
		}
	}
}

// LastEdgeIn is the one last-edge probe of both failure models. Under the
// failure of edge e or of vertex w (the other one NoEdge or -1), with
// distE the distances in G minus that failure, a last edge of v is an
// edge (u,v) ≠ e with u ≠ w and distE[u]+1 = distE[v]: the last edge of
// some replacement path of ⟨v, failure⟩. LastEdgeIn returns the first last
// edge of v (in v's adjacency order) that lies in in, and true; when none
// does, it returns the min-index candidate (adjacency lists are sorted by
// neighbour, so the first one found) and false, or NoEdge and false if v
// has no last edge at all. A v the failure disconnects is vacuously
// protected: NoEdge and true.
//
// With in = T0 it is Phase S0's covered test (a pair is covered when a
// tree edge certifies it); with in = H it is the reinforcement rule's
// last-protected test (Observation 2.2) and the vertex construction's.
func (en *Engine) LastEdgeIn(in *graph.EdgeSet, v int32, e graph.EdgeID, w int32, distE []int32) (graph.EdgeID, bool) {
	target := distE[v]
	if target == bfs.Unreachable {
		return graph.NoEdge, true
	}
	cand := graph.NoEdge
	for _, a := range en.G.Neighbors(int(v)) {
		if a.ID == e || a.To == w || distE[a.To] == bfs.Unreachable || distE[a.To]+1 != target {
			continue
		}
		if in.Contains(a.ID) {
			return a.ID, true
		}
		if cand == graph.NoEdge {
			cand = a.ID
		}
	}
	return cand, false
}

// AllPairs enumerates every vertex-edge pair ⟨v,e⟩ with e ∈ π(s,v) and
// returns the uncovered ones with their canonical replacement paths,
// ordered by failing edge (outer) and by the preorder of the edge's subtree
// (inner). Nothing downstream depends on that order. Every consumer either
// takes a set union (the baseline, Greedy's fans, BuildReinforcing,
// Phase S2.1's glue edges), or decides each pair by an existence test (the
// I1/I2 split, Phase S1's classify), or re-sorts by a total order (the
// per-terminal buckets of Phases S1 and S2: terminal id, then distance of
// the failing edge from v and edge id). The result is memoised until the
// next Reset, so builders sharing an engine for several ε values on the
// same source pay for Phase S0 once; callers must treat it as read-only.
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
			// A pair is covered when a T0 edge certifies it; the probe
			// also reports vacuous pairs (v unreachable in G\{e}) as
			// covered: there is nothing to protect.
			if _, covered := en.LastEdgeIn(en.TreeEdges, v, e, -1, distE); covered {
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
			if _, covered := en.LastEdgeIn(en.TreeEdges, v, e, -1, distE); !covered {
				count++
			}
		}
	})
	return count
}
