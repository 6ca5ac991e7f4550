package replacement

import (
	"fmt"

	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
	"ftbfs/internal/paths"
)

// Pcons constructs the canonical new-ending replacement path for the
// uncovered pair ⟨v,e⟩ following Algorithm Pcons of the paper (Phase S0):
// among all shortest s–v paths in G\{e} it selects one whose unique
// divergence point from π(s,v) is as close to s as possible (Claim 4.4).
//
// Implementation: with π(s,v) = [u_0=s, …, u_k=v] and e = (u_i, u_{i+1}),
// let G_j(v) = G \ (V(π(u_j, u_k)) \ {u_j, u_k}). dist(s,v,G_j(v)\{e}) is
// non-increasing in j and bounded below by target = dist(s,v,G\{e}), so the
// minimal j* with equality (the paper's divergence index) is found by
// binary search. By Observation 3.2 the detour segment D(P) then avoids all
// of π(s,v) except its endpoints d = u_{j*} and v, so it is extracted as
// the canonical shortest d–v path in G minus V(π(s,v))\{d,v}, rooted at v
// (rooting detours of the same terminal in near-identical graphs realises
// the W-consistency that Claim 4.6 relies on).
//
// target must equal dist(s,v,G\{e}) (finite), child the deeper endpoint
// of e.
func (en *Engine) Pcons(v int32, e graph.EdgeID, child int32, target int32) *Pair {
	if en.sc == nil {
		en.sc, en.banned = bfs.NewScratch(en.G.N()), graph.NewVertexSet(en.G.N())
	}
	pi := en.BT.PathTo(int(v)) // π(s,v)
	k := len(pi) - 1
	i := int(en.T.Depth[child]) - 1 // e = (u_i, u_{i+1})
	if i < 0 || i >= k || pi[i+1] != child {
		panic(fmt.Sprintf("replacement: edge child %d (depth %d) not on π(s,%d)", child, en.T.Depth[child], v))
	}

	// probe(j) = dist(s, v, G_j(v)\{e})
	probe := func(j int) int32 {
		en.banned.Clear()
		for t := j + 1; t < k; t++ { // interior of π(u_j, v)
			en.banned.Add(pi[t])
		}
		return en.sc.DistAvoiding(en.G, en.S, int(v),
			bfs.Restriction{BannedEdge: e, BannedVertices: en.banned})
	}

	lo, hi := 0, i
	for lo < hi {
		mid := (lo + hi) / 2
		if probe(mid) == target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	jstar := lo
	if jstar == i && probe(i) != target {
		panic(fmt.Sprintf("replacement: no unique-divergence replacement path for ⟨%d,%v⟩", v, en.G.EdgeByID(e)))
	}
	d := pi[jstar]

	// Detour: canonical shortest d–v path avoiding every other π(s,v)
	// vertex (Observation 3.2), walked from the v side.
	en.banned.Clear()
	for t := 0; t <= k; t++ {
		if t != jstar && t != k {
			en.banned.Add(pi[t])
		}
	}
	rev := en.sc.CanonicalPathAvoiding(en.G, int(v), int(d),
		bfs.Restriction{BannedEdge: e, BannedVertices: en.banned})
	if rev == nil {
		panic(fmt.Sprintf("replacement: no detour from divergence point %d to %d", d, v))
	}
	detour := paths.Path(rev).Reverse() // d → v
	if got := int32(jstar) + int32(detour.Len()); got != target {
		panic(fmt.Sprintf("replacement: detour length %d + prefix %d != target %d (v=%d, e=%v)",
			detour.Len(), jstar, target, v, en.G.EdgeByID(e)))
	}

	last := detour.LastEdge()
	lastID := en.G.EdgeIDOf(int(last.U), int(last.V))
	if lastID == graph.NoEdge {
		panic("replacement: last edge not in G")
	}
	if en.TreeEdges.Contains(lastID) {
		panic(fmt.Sprintf("replacement: uncovered pair ⟨%d,%v⟩ produced a T0 last edge", v, en.G.EdgeByID(e)))
	}
	return &Pair{
		V:         v,
		Edge:      e,
		EdgeChild: child,
		Dist:      target,
		Div:       d,
		Detour:    detour,
		LastID:    lastID,
	}
}

// FullPath reconstructs the complete replacement path π(s,Div)◦Detour.
func (en *Engine) FullPath(p *Pair) paths.Path {
	prefix := paths.Path(en.BT.PathTo(int(p.Div)))
	return paths.Concat(prefix, p.Detour)
}
