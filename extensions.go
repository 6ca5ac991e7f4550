package ftbfs

import (
	"ftbfs/internal/sensitivity"
)

// BuildVertexFT is the original name of BuildVertex, kept for
// compatibility; the vertex-failure serving surface (query plan, oracles,
// persistence) lives on the VertexStructure it returns.
func BuildVertexFT(g *Graph, source int) (*VertexStructure, error) {
	return BuildVertex(g, source)
}

// SensitivityOracle answers dist(source, v, G\{e}) queries on the full
// graph — the replacement-path distances that FT-BFS structures preserve.
// Queries for failures that cannot affect v are O(1); others run one BFS
// per distinct failed edge, cached.
type SensitivityOracle struct {
	o *sensitivity.Oracle
}

// NewSensitivityOracle builds the oracle; cacheCapacity bounds the number
// of failure BFS results kept (≤ 0 uses the default).
func NewSensitivityOracle(g *Graph, source, cacheCapacity int) (*SensitivityOracle, error) {
	g.g.Freeze()
	o, err := sensitivity.New(g.g, source, cacheCapacity)
	if err != nil {
		return nil, err
	}
	return &SensitivityOracle{o: o}, nil
}

// Dist returns the intact distance from the source to v.
func (s *SensitivityOracle) Dist(v int) int { return int(s.o.Dist(v)) }

// DistAvoiding returns dist(source, v, G \ {u,w}) (Unreachable if cut off).
func (s *SensitivityOracle) DistAvoiding(v, u, w int) (int, error) {
	d, err := s.o.DistAvoiding(v, u, w)
	return int(d), err
}

// CacheStats returns (hits, misses) of the failure cache.
func (s *SensitivityOracle) CacheStats() (hits, misses int) { return s.o.CacheStats() }
