package ftbfs

import (
	"fmt"
	"sync"

	"ftbfs/internal/bfs"
	"ftbfs/internal/core"
	"ftbfs/internal/graph"
)

// serving is the query core that Structure and VertexStructure embed: H over
// its base graph, the query plan (which holds the intact distance vector)
// and the oracle pool. The two failure models differ only in which failures
// an oracle accepts and in which subtree of H's BFS tree a failure can
// change (QueryPlan.dist), so everything else is written once, here. H
// never changes once built, so the plan and the pool are computed on first
// use and cached forever; the methods are safe for concurrent use.
type serving struct {
	g          *graph.Graph
	src        int
	h          *graph.EdgeSet // E(H)
	reinforced *graph.EdgeSet // edges that cannot fail; nil in the vertex model
	model      core.Model     // failure model; indexes the plan-path totals (planstats.go)

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

// Dist returns dist(source, v) inside the intact structure H: one read of
// the plan's intact vector, which the first call builds.
func (s *serving) Dist(v int) int { return int(s.Plan().intact[v]) }

// Plan returns the structure's query plan, building it on the first call
// (one CSR extraction, one BFS of H and linear passes over it) and caching
// it forever.
func (s *serving) Plan() *QueryPlan {
	s.planOnce.Do(func() {
		h := s.g.SubgraphCSR(s.h)
		s.qplan = newPlan(h, bfs.FromCSR(h, s.src), s.model)
	})
	return s.qplan
}

// Oracle returns a failure-simulation oracle for the structure: failed edges
// for an edge structure, failed vertices for a vertex structure.
func (s *serving) Oracle() *Oracle {
	return &Oracle{st: s, plan: s.Plan(), repaired: noFailure}
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

// Verify exhaustively checks the structure's contract: after any one
// failure of its model — a non-reinforced edge of an edge structure, a
// vertex other than the source of a vertex structure — every vertex is as
// close to the source in H as in G. It returns an error naming the first
// violations, or nil. The failures to check are picked from G and H alone
// (core.Verify), so a loaded record is checked as strictly as a fresh
// build. It runs up to two BFS passes per failure and is intended for
// validation, not hot paths.
func (s *serving) Verify() error {
	if viol := core.Verify(s.g, s.src, s.h, s.reinforced, s.model, 5); len(viol) > 0 {
		return fmt.Errorf("ftbfs: FT-BFS contract violated: %v", viol)
	}
	return nil
}
