package ftbfs

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"ftbfs/internal/bfs"
	"ftbfs/internal/core"
	"ftbfs/internal/graph"
)

// SaveSlab serialises the structure as a binary record, the one structure
// record format: E(H) and the reinforced set plus the fully materialized
// query plan (H's CSR, the intact distance vector, H's canonical BFS tree in
// BFS order), stored as flat little-endian slabs. T0 is not stored: H's
// canonical BFS tree is T0 for every built structure. Loading such a record
// skips endpoint re-binding and every BFS pass — see LoadStructure. The plan
// is built first if the structure has never served a query.
func (s *Structure) SaveSlab(w io.Writer) error {
	alg, err := core.ParseAlgorithm(s.st.Stats.Algorithm)
	if err != nil {
		return fmt.Errorf("ftbfs: slab save: %w", err)
	}
	return s.saveSlab(w, &core.SlabRecord{
		Model:      core.ModelEdge,
		Eps:        s.st.Eps,
		Alg:        alg,
		Reinforced: s.st.Reinforced,
	})
}

// SaveSlab serialises the vertex structure as a binary record in the same
// layout; the vertex model stores no ε or algorithm, its reinforced section
// is empty, and its header carries Pairs. See Structure.SaveSlab.
func (s *VertexStructure) SaveSlab(w io.Writer) error {
	return s.saveSlab(w, &core.SlabRecord{Model: core.ModelVertex, Pairs: s.Pairs()})
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

// LoadStructure reads a structure record written by SaveSlab, re-binding it
// against its base graph; the graph is frozen by this call. The record
// carries its serving arrays ready-built and is cross-validated without any
// search, so loading is I/O-bound. Use Verify for the full contract: it
// picks the failures to check from G and H alone. Any input that is not a
// slab record is refused, as is a vertex record and a record written in a
// retired layout (magic FTB3 or FTB4).
func LoadStructure(g *Graph, r io.Reader) (*Structure, error) {
	rec, err := loadSlab(g, r)
	if err != nil {
		return nil, err
	}
	if rec.Model != core.ModelEdge {
		return nil, fmt.Errorf("ftbfs: record is a vertex structure (load it with LoadVertexStructure)")
	}
	cs := &core.Structure{
		G:          g.g,
		S:          rec.S,
		Eps:        rec.Eps,
		Edges:      rec.Edges,
		Reinforced: rec.Reinforced,
	}
	cs.Stats.Algorithm = rec.Alg.String()
	s := newStructure(cs)
	if err := s.installSlab(rec); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadVertexStructure is LoadStructure for a vertex structure written by
// VertexStructure.SaveSlab. It also refuses a record whose stored pair
// count is not the Pairs of its H and tree.
func LoadVertexStructure(g *Graph, r io.Reader) (*VertexStructure, error) {
	rec, err := loadSlab(g, r)
	if err != nil {
		return nil, err
	}
	if rec.Model != core.ModelVertex {
		return nil, fmt.Errorf("ftbfs: record is an edge structure (load it with LoadStructure)")
	}
	s := newVertexStructure(g.g, rec.S, rec.Edges)
	if err := s.installSlab(rec); err != nil {
		return nil, err
	}
	if got := s.Pairs(); got != rec.Pairs {
		return nil, fmt.Errorf("ftbfs: vertex record stores %d pairs, its H and tree give %d", rec.Pairs, got)
	}
	return s, nil
}

// loadSlab freezes g, reads a record and decodes it against g; DecodeSlab
// refuses any input without the slab magic.
func loadSlab(g *Graph, r io.Reader) (*core.SlabRecord, error) {
	g.g.Freeze()
	data, err := readRecord(r)
	if err != nil {
		return nil, err
	}
	return core.DecodeSlab(data, g.g)
}

// readRecord slurps a structure record, pre-sizing the buffer when the
// reader's length is knowable (files via Stat, in-memory readers via Size)
// so a load costs one allocation instead of a doubling growth chain — slab
// loading is otherwise fast enough that buffer churn shows up. The slack is
// bytes.MinRead because ReadFrom wants that much room before the read that
// finds EOF: with less it reallocates to about twice the size, and a slab
// structure keeps whatever buffer it was decoded from.
func readRecord(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	switch src := r.(type) {
	case *os.File:
		if fi, err := src.Stat(); err == nil && fi.Size() > 0 {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	case interface{ Size() int64 }: // bytes.Reader, strings.Reader
		if sz := src.Size(); sz > 0 {
			buf.Grow(int(sz) + bytes.MinRead)
		}
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// installSlab seeds the serving core with the query plan a decoded record
// carries, so the first query after a load-through pays nothing. The plan's
// tree, whose distances are the record's intact vector, is reassembled by a
// linear pass over arrays the decoder already validated — no search runs
// anywhere on the slab load path.
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
	s.planOnce.Do(func() { s.qplan = newPlan(h, bt, s.model) })
	return nil
}
