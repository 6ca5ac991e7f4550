// Package replacement computes single-failure replacement paths: for a
// source s, a terminal v and a failing tree edge e ∈ π(s,v), the canonical
// shortest s–v path in G \ {e}. It implements Phase S0 of the paper
// (Algorithm Pcons), including the classification of vertex-edge pairs into
// covered pairs (a replacement path can reuse a T0 last edge) and uncovered
// pairs (the path is new-ending), and the extraction of detour segments.
//
// Algorithm Pcons (Claim 4.4) gives an uncovered pair ⟨v,e⟩, with
// π(s,v) = u_0 … u_k and e = (u_i, u_{i+1}), the replacement path whose
// divergence index is least: j* is the least j ≤ i with
// dist(s, v, G_j(v) ∖ {e}) = target = dist(s, v, G ∖ {e}), where G_j(v) is
// G without u_{j+1} … u_{k−1}. Its detour is the canonical shortest
// u_{j*}–v path in G ∖ {e} without the rest of π(s,v), rooted at v (the
// detours of one terminal share suffixes: the W-consistency Claim 4.6
// relies on). Phase S0 finds all of a terminal's paths with one search.
// Let D(x) = dist(v, x, G ∖ (π(s,v) ∖ {v})) and δ(j) = 1 + min D(x) over
// the arcs (u_j, x), skipping v's own tree edge (u_{k−1}, v).
//
//   - The split. A path of G_j(v) ∖ {e} splits at its last vertex u_{j′} on
//     π(s, u_j). Up to it the path is at least j′ long, and π(s, u_{j′})
//     attains that without e, since j′ ≤ i. After it the path takes an arc
//     (u_{j′}, x) with x off π(s,v) ∖ {v} and stays off, so it is at least
//     1 + D(x) long, attained by a shortest path of D. The arc is never e
//     (both of e's endpoints are on π(s,v) ∖ {v}) unless e is v's tree
//     edge, which δ skips. So dist(s, v, G_j(v) ∖ {e}) is the least
//     j′ + δ(j′) over j′ ≤ j, and j* is the least j ≤ i with j + δ(j) =
//     target.
//   - One search per terminal. Neither the banned set π(s,v) ∖ {v} nor δ
//     depends on e, so one BFS from v serves every uncovered pair of v.
//   - The detour. It is the walk from u_{j*} down D's levels that takes the
//     min-index neighbour one level nearer v: the walk back of Pcons's
//     canonical search. That search's graph also holds u_{j*}, but it gives
//     every vertex nearer to v than u_{j*} the same level as D does,
//     because no shortest path to such a vertex passes through u_{j*}. The
//     walk cannot cross e: its one step that could join two vertices of
//     π(s,v) is a one-edge detour (u_{j*}, v), which is e only at
//     j* = k−1, where δ skips it.
//   - The bound. A detour leaving u_j is target − j long, so only D(x) <
//     target matters, and the BFS stops at v's largest target.
//
// Its Engine also owns the one failure sweep of both failure models: the
// edge sweep (every tree edge) and the vertex sweep (every internal tree
// vertex but s) share one repair-and-restore loop over the failed subtree
// and one last-edge probe, which the edge construction's reinforcement
// rule and the vertex construction (core.LastUnprotectedMulti and
// core.VertexEdges) both run on.
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

	s0 *terminalSearch // Phase S0's per-terminal search, allocated on first use

	// The failure sweep repairs each failed subtree over G's own CSR.
	// distE holds the intact distances, with the repaired ones of the
	// failed subtree while a sweep's callback runs.
	repair *bfs.Repair
	distE  []int32

	pairs      []*Pair // memoised AllPairs result; valid while pairsReady
	pairsReady bool
}

// NewEngine builds the engine for (g, s). g must be frozen.
func NewEngine(g *graph.Graph, s int) *Engine {
	en := &Engine{
		G:      g,
		repair: bfs.NewRepair(g.N()),
		distE:  make([]int32, g.N()),
	}
	en.Reset(s)
	return en
}

// Reset rebinds the engine to a new source on the same graph, recomputing the
// canonical tree and its ancestry but recycling every scratch allocation
// (repair scratch, distance array, Phase S0's per-terminal search). The
// AllPairs memo is invalidated. Batch builders use this to amortise the
// scratch across one worker's whole stream of sources.
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
		en.repair.Run(en.G.CSR(), en.BT.Dist, sub, e, w)
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
// does, it returns the min-index candidate (G's CSR rows are sorted by
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
// per-terminal runs of Phases S1 and S2: terminal id, then distance of
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
