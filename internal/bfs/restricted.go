package bfs

import (
	"ftbfs/internal/graph"
)

// Restriction describes the part of G excluded from a search: at most one
// banned edge (a failing edge), an optional banned-vertex set (failed
// vertices), and an optional whitelist of edges (searching inside a
// structure H ⊆ G).
// A nil BannedVertices means no vertex is banned; a nil AllowedEdges means
// every edge of G may be used; BannedEdge may be graph.NoEdge.
type Restriction struct {
	BannedEdge     graph.EdgeID
	BannedVertices *graph.VertexSet
	AllowedEdges   *graph.EdgeSet
}

// blocks reports whether the restriction forbids traversing arc a into a.To.
func (r Restriction) blocks(a graph.Arc) bool {
	if a.ID == r.BannedEdge {
		return true
	}
	if r.AllowedEdges != nil && !r.AllowedEdges.Contains(a.ID) {
		return true
	}
	return r.BannedVertices != nil && r.BannedVertices.Contains(a.To)
}

// Scratch holds reusable buffers for repeated restricted searches, avoiding
// per-call allocation in a caller's loop of them (the verifier runs two per
// failure).
// A Scratch is not safe for concurrent use.
type Scratch struct {
	dist  []int32
	queue []int32
	epoch []int32
	cur   int32
}

// NewScratch returns scratch buffers for graphs with n vertices.
func NewScratch(n int) *Scratch {
	return &Scratch{
		dist:  make([]int32, n),
		queue: make([]int32, 0, n),
		epoch: make([]int32, n),
	}
}

func (sc *Scratch) reset() {
	sc.cur++
	sc.queue = sc.queue[:0]
}

func (sc *Scratch) seen(v int32) bool { return sc.epoch[v] == sc.cur }

func (sc *Scratch) set(v, d int32) {
	sc.epoch[v] = sc.cur
	sc.dist[v] = d
}

// DistancesAvoiding runs BFS from s under the restriction and writes
// distances into out (len must be g.N()); unreachable and banned vertices get
// Unreachable. It returns out for chaining.
func (sc *Scratch) DistancesAvoiding(g *graph.Graph, s int, r Restriction, out []int32) []int32 {
	sc.reset()
	if r.BannedVertices == nil || !r.BannedVertices.Contains(int32(s)) {
		sc.set(int32(s), 0)
		sc.queue = append(sc.queue, int32(s))
	}
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		for _, a := range g.Neighbors(int(u)) {
			if sc.seen(a.To) || r.blocks(a) {
				continue
			}
			sc.set(a.To, sc.dist[u]+1)
			sc.queue = append(sc.queue, a.To)
		}
	}
	for v := range out {
		if sc.seen(int32(v)) {
			out[v] = sc.dist[v]
		} else {
			out[v] = Unreachable
		}
	}
	return out
}
