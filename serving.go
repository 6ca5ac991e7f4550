package ftbfs

import (
	"sync"

	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
)

// Failure models: which kind of single failure a structure tolerates. They
// index the per-model plan-path totals (planstats.go).
const (
	edgeModel = iota
	vertexModel
)

// serving is the query core that Structure and VertexStructure embed: H over
// its base graph, the intact distance vector, the query plan and the oracle
// pool. The two failure models differ only in which failures an oracle
// accepts and in which subtree of H's BFS tree a failure can change
// (QueryPlan.dist), so everything else is written once, here. H never
// changes once built, so the vector, the plan and the pool are computed on
// first use and cached forever; the methods are safe for concurrent use.
type serving struct {
	g          *graph.Graph
	src        int
	h          *graph.EdgeSet // E(H)
	reinforced *graph.EdgeSet // edges that cannot fail; nil in the vertex model
	model      int            // edgeModel or vertexModel

	intactOnce sync.Once
	intactDist []int32 // cached dist(s, ·) in the intact H; see intactDistances

	planOnce sync.Once
	qplan    *QueryPlan // cached serving plan; see Plan

	poolOnce sync.Once
	pool     *OraclePool
}

// Source returns the BFS source.
func (s *serving) Source() int { return s.src }

// Size returns |E(H)|.
func (s *serving) Size() int { return s.h.Len() }

// Contains reports whether edge {u,v} belongs to the structure.
func (s *serving) Contains(u, v int) bool {
	id := s.g.EdgeIDOf(u, v)
	return id != graph.NoEdge && s.h.Contains(id)
}

// Edges returns all structure edges as endpoint pairs.
func (s *serving) Edges() [][2]int { return edgePairs(s.g, s.h) }

// intactDistances returns the distance vector of the intact structure H,
// computing it on the first call; it is shared read-only by every oracle and
// by the query plan.
func (s *serving) intactDistances() []int32 {
	s.intactOnce.Do(func() {
		sc := bfs.NewScratch(s.g.N())
		s.intactDist = sc.DistancesAvoiding(s.g, s.src,
			bfs.Restriction{BannedEdge: graph.NoEdge, AllowedEdges: s.h},
			make([]int32, s.g.N()))
	})
	return s.intactDist
}

// Dist returns dist(source, v) inside the intact structure H. The vector is
// computed once on first use and cached forever, so repeated calls are O(1)
// lookups.
func (s *serving) Dist(v int) int {
	return int(s.intactDistances()[v])
}

// Plan returns the structure's query plan, building it on the first call
// (one CSR extraction plus linear passes over H) and caching it forever.
func (s *serving) Plan() *QueryPlan {
	s.planOnce.Do(func() {
		h := s.g.SubgraphCSR(s.h)
		s.qplan = newPlan(s.g, h, s.intactDistances(), bfs.FromCSR(h, s.src), s.model)
	})
	return s.qplan
}

// Oracle returns a failure-simulation oracle for the structure: failed edges
// for an edge structure, failed vertices for a vertex structure.
func (s *serving) Oracle() *Oracle {
	return &Oracle{
		st:       s,
		plan:     s.Plan(),
		scratch:  bfs.NewScratch(s.g.N()),
		dist:     make([]int32, s.g.N()),
		repaired: noFailure,
	}
}

// OraclePool returns the structure's oracle pool. The pool is created on the
// first call and shared by subsequent calls, so concurrent users of one
// structure recycle the same oracles.
func (s *serving) OraclePool() *OraclePool {
	s.poolOnce.Do(func() {
		s.pool = &OraclePool{s: s}
		s.pool.p.New = func() any { return s.Oracle() }
	})
	return s.pool
}
