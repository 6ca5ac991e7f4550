package ftbfs

import (
	"errors"
	"fmt"
	"io"

	"ftbfs/internal/batch"
	"ftbfs/internal/core"
	"ftbfs/internal/graph"
)

// Graph is an undirected graph under construction. Vertices are integers
// 0..N()-1; edges are unweighted (BFS distances count hops). A Graph is
// frozen by the first Build/BuildMulti call, after which AddEdge fails.
type Graph struct {
	g *graph.Graph
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return &Graph{g: graph.New(n)} }

// AddEdge inserts the undirected edge {u,v}; self-loops, duplicates and
// out-of-range endpoints are rejected.
func (g *Graph) AddEdge(u, v int) error {
	if g.g.Frozen() {
		return errors.New("ftbfs: graph is frozen (already built against)")
	}
	_, err := g.g.AddEdge(u, v)
	return err
}

// MustAddEdge is AddEdge panicking on error.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.g.N() }

// M returns the number of edges.
func (g *Graph) M() int { return g.g.M() }

// HasEdge reports whether {u,v} is present.
func (g *Graph) HasEdge(u, v int) bool { return g.g.HasEdge(u, v) }

// Fingerprint returns a stable 64-bit hash of the graph (vertex count plus
// the edge list in insertion order). Registries key built structures by it;
// it is stable across processes, so it also keys on-disk structure caches.
func (g *Graph) Fingerprint() uint64 { return g.g.Fingerprint() }

// Freeze marks the graph immutable (idempotent). Build and BuildBatch freeze
// implicitly; freeze explicitly before sharing one graph across concurrent
// builders, since the first freeze mutates adjacency order.
func (g *Graph) Freeze() { g.g.Freeze() }

// Write serialises the graph in the library's text format.
func (g *Graph) Write(w io.Writer) error { return graph.Encode(w, g.g) }

// ReadGraph parses a graph from the library's text format.
func ReadGraph(r io.Reader) (*Graph, error) {
	g, err := graph.Decode(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Algorithm selects the construction used by Build.
type Algorithm = core.Algorithm

// Exported algorithm choices; see the core package documentation.
const (
	AlgoAuto     = core.Auto
	AlgoTree     = core.Tree
	AlgoBaseline = core.Baseline
	AlgoEpsilon  = core.Epsilon
	AlgoGreedy   = core.Greedy
)

// BuildOption tunes Build.
type BuildOption func(*core.Options)

// WithAlgorithm forces a specific construction instead of the ε-based
// automatic dispatch.
func WithAlgorithm(a Algorithm) BuildOption {
	return func(o *core.Options) { o.Algorithm = a }
}

// WithGreedyBudget caps the reinforced edges of the greedy heuristic.
func WithGreedyBudget(budget int) BuildOption {
	return func(o *core.Options) { o.GreedyBudget = budget }
}

// WithoutPhase1 ablates Phase S1 of the ε algorithm (more reinforcement,
// fewer backup edges); intended for experiments.
func WithoutPhase1() BuildOption {
	return func(o *core.Options) { o.SkipPhase1 = true }
}

// WithoutPhase2 ablates Phase S2 of the ε algorithm; intended for
// experiments.
func WithoutPhase2() BuildOption {
	return func(o *core.Options) { o.SkipPhase2 = true }
}

// Structure is a built (b, r) FT-BFS structure. It embeds the serving core
// VertexStructure embeds — Source, Size, Contains, Edges, Dist, Plan, Oracle
// and OraclePool are one code path for both failure models — and its
// oracles answer edge failures. Structures are immutable once built; the
// read-only query methods are safe for concurrent use, and OraclePool
// serves concurrent failure-simulation queries.
type Structure struct {
	serving
	st *core.Structure
}

// newStructure wraps a built edge structure in its serving core.
func newStructure(st *core.Structure) *Structure {
	return &Structure{serving: serving{g: st.G, src: st.S, h: st.Edges, reinforced: st.Reinforced}, st: st}
}

// Build constructs an ε FT-BFS structure for (g, source). The graph is
// frozen by this call. ε ∈ [0, 1] positions the structure on the
// reinforcement-backup tradeoff: small ε buys few backup edges and many
// reinforced ones, large ε the opposite (Theorem 3.1).
func Build(g *Graph, source int, eps float64, opts ...BuildOption) (*Structure, error) {
	var o core.Options
	for _, f := range opts {
		f(&o)
	}
	g.g.Freeze()
	st, err := core.Build(g.g, source, eps, o)
	if err != nil {
		return nil, err
	}
	return newStructure(st), nil
}

// Epsilon returns the tradeoff parameter the structure was built with.
func (s *Structure) Epsilon() float64 { return s.st.Eps }

// BackupCount returns b — the number of fault-prone edges purchased.
func (s *Structure) BackupCount() int { return s.st.BackupCount() }

// ReinforcedCount returns r — the number of fail-proof edges purchased.
func (s *Structure) ReinforcedCount() int { return s.st.ReinforcedCount() }

// Cost prices the structure: backupPrice·b + reinforcePrice·r.
func (s *Structure) Cost(backupPrice, reinforcePrice float64) float64 {
	return s.st.Cost(backupPrice, reinforcePrice)
}

// IsReinforced reports whether edge {u,v} is reinforced.
func (s *Structure) IsReinforced(u, v int) bool {
	id := s.st.G.EdgeIDOf(u, v)
	return id != graph.NoEdge && s.st.Reinforced.Contains(id)
}

// ReinforcedEdges returns the reinforced edges as endpoint pairs.
func (s *Structure) ReinforcedEdges() [][2]int { return edgePairs(s.st.G, s.st.Reinforced) }

func edgePairs(g *graph.Graph, set *graph.EdgeSet) [][2]int {
	out := make([][2]int, 0, set.Len())
	set.ForEach(func(id graph.EdgeID) {
		e := g.EdgeByID(id).Canonical()
		out = append(out, [2]int{int(e.U), int(e.V)})
	})
	return out
}

// Verify exhaustively checks the FT-BFS contract and returns an error
// describing the first violations, or nil. It runs O(n) BFS passes and is
// intended for validation, not hot paths.
func (s *Structure) Verify() error { return core.MustVerify(s.st) }

// Stats exposes per-phase construction diagnostics.
func (s *Structure) Stats() BuildStats { return s.st.Stats }

// BuildStats re-exports the construction diagnostics type.
type BuildStats = core.BuildStats

// WriteDOT renders the base graph with the structure overlaid (reinforced
// edges bold red, backup solid, discarded edges dotted).
func (s *Structure) WriteDOT(w io.Writer) error {
	return graph.WriteDOT(w, s.st.G, graph.DOTOptions{
		Structure:  s.st.Edges,
		Reinforced: s.st.Reinforced,
		Source:     s.st.S,
	})
}

// String implements fmt.Stringer.
func (s *Structure) String() string { return s.st.String() }

// MultiStructure is an ε FT-MBFS structure protecting several sources.
type MultiStructure struct {
	ms *core.MultiStructure
}

// BuildMulti constructs one structure protecting every source in sources
// simultaneously (the FT-MBFS setting of Section 5 of the paper).
func BuildMulti(g *Graph, sources []int, eps float64, opts ...BuildOption) (*MultiStructure, error) {
	var o core.Options
	for _, f := range opts {
		f(&o)
	}
	g.g.Freeze()
	ms, err := core.BuildMulti(g.g, sources, eps, o)
	if err != nil {
		return nil, err
	}
	return &MultiStructure{ms: ms}, nil
}

// Size, BackupCount and ReinforcedCount mirror Structure.
func (m *MultiStructure) Size() int            { return m.ms.Size() }
func (m *MultiStructure) BackupCount() int     { return m.ms.BackupCount() }
func (m *MultiStructure) ReinforcedCount() int { return m.ms.ReinforcedCount() }

// Verify checks the FT-MBFS contract for every source.
func (m *MultiStructure) Verify() error {
	if viol := core.VerifyMulti(m.ms, 5); len(viol) > 0 {
		return fmt.Errorf("ftbfs: FT-MBFS contract violated: %v", viol)
	}
	return nil
}

// CostPoint is one entry of a SweepCost result.
type CostPoint = core.CostPoint

// SweepCost builds a structure per ε in the grid, prices each with the
// given per-edge costs, and returns the sweep plus the index of the
// cheapest point. A nil grid uses the default {0, ⅛, ¼, ⅜, ½, ¾, 1}.
// The sweep runs through the batch orchestrator, so the BFS tree and the
// replacement-path preprocessing are computed once and shared by every ε.
func SweepCost(g *Graph, source int, grid []float64, backupPrice, reinforcePrice float64) ([]CostPoint, int, error) {
	if grid == nil {
		grid = core.DefaultEpsGrid()
	}
	g.g.Freeze()
	return batch.CostSweep(g.g, source, grid, backupPrice, reinforcePrice, batch.Options{})
}

// PredictOptimalEpsilon returns the paper's closed-form guidance for the
// cost-minimising ε given per-edge prices: ε ≈ log(R/B) / (2 log n),
// clamped to [0, ½].
func PredictOptimalEpsilon(n int, backupPrice, reinforcePrice float64) float64 {
	return core.PredictedOptimalEps(n, backupPrice, reinforcePrice)
}
