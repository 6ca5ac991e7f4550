package ftbfs

import (
	"fmt"
	"io"

	"ftbfs/internal/bfs"
	"ftbfs/internal/core"
	"ftbfs/internal/graph"
	"ftbfs/internal/vertexft"
)

// SaveSlab serialises the structure as a version-3 binary record: the edge
// sets plus the fully materialized query plan (H's CSR, the intact distance
// vector, H's canonical BFS tree in BFS order), stored as flat little-endian
// slabs. Loading such a record skips text parsing, endpoint re-binding and
// every BFS pass — see LoadStructure, which sniffs the format. The plan is
// built first if the structure has never served a query.
func (s *Structure) SaveSlab(w io.Writer) error {
	alg, err := core.ParseAlgorithm(s.st.Stats.Algorithm)
	if err != nil {
		return fmt.Errorf("ftbfs: slab save: %w", err)
	}
	return s.saveSlab(w, &core.SlabRecord{
		Model:      core.SlabEdge,
		Eps:        s.st.Eps,
		Alg:        alg,
		Reinforced: s.st.Reinforced,
		TreeEdges:  s.st.TreeEdges,
	})
}

// SaveSlab serialises the vertex structure as a version-3 binary record; the
// vertex model stores no ε/algorithm/reinforcement dimension, mirroring the
// version-2 text record. See Structure.SaveSlab.
func (s *VertexStructure) SaveSlab(w io.Writer) error {
	return s.saveSlab(w, &core.SlabRecord{Model: core.SlabVertex, Pairs: s.st.Pairs})
}

// saveSlab completes rec, which carries the model's own fields, with the
// sections every record shares — H and its serving plan — and encodes it.
func (s *serving) saveSlab(w io.Writer, rec *core.SlabRecord) error {
	p := s.Plan()
	rec.S = s.src
	rec.Gen = s.g.Generation()
	rec.Edges = s.h
	rec.Intact = p.intact
	rec.RowStart = p.h.RowStart
	rec.Arcs = p.h.Arcs
	rec.Parent = p.t.Parent
	rec.ParentEdge = p.t.ParentEdge
	rec.Order = p.t.Order()
	return core.EncodeSlab(w, s.g, rec)
}

// installSlab seeds the serving core with the intact vector and the query
// plan a decoded record carries, so the first query after a load-through
// pays nothing. The plan's tree is reassembled by a linear pass over arrays
// the decoder already validated — no search runs anywhere on the slab load
// path.
func (s *serving) installSlab(rec *core.SlabRecord) error {
	h, err := graph.NewCSR(s.g.N(), rec.RowStart, rec.Arcs)
	if err != nil {
		return err
	}
	h.Gen = rec.Gen // the decoder verified rec.Gen == g.Generation()
	bt := &bfs.Tree{
		Source:     int32(rec.S),
		Dist:       rec.Intact,
		Parent:     rec.Parent,
		ParentEdge: rec.ParentEdge,
		Order:      rec.Order,
	}
	s.intactOnce.Do(func() { s.intactDist = rec.Intact })
	s.planOnce.Do(func() { s.qplan = newPlan(s.g, h, rec.Intact, bt, s.model) })
	return nil
}

// slabStructure assembles a serving-ready edge structure from a decoded
// binary record.
func slabStructure(g *graph.Graph, rec *core.SlabRecord) (*Structure, error) {
	if rec.Model != core.SlabEdge {
		return nil, fmt.Errorf("ftbfs: record is a vertex structure (load it with LoadVertexStructure)")
	}
	cs := &core.Structure{
		G:          g,
		S:          rec.S,
		Eps:        rec.Eps,
		Edges:      rec.Edges,
		Reinforced: rec.Reinforced,
		TreeEdges:  rec.TreeEdges,
	}
	cs.Stats.Algorithm = rec.Alg.String()
	s := newStructure(cs)
	if err := s.installSlab(rec); err != nil {
		return nil, err
	}
	return s, nil
}

// slabVertexStructure is slabStructure for the vertex model.
func slabVertexStructure(g *graph.Graph, rec *core.SlabRecord) (*VertexStructure, error) {
	if rec.Model != core.SlabVertex {
		return nil, fmt.Errorf("ftbfs: record is an edge structure (load it with LoadStructure)")
	}
	s := newVertexStructure(&vertexft.Structure{G: g, S: rec.S, Edges: rec.Edges, Pairs: rec.Pairs})
	if err := s.installSlab(rec); err != nil {
		return nil, err
	}
	return s, nil
}
