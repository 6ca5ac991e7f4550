package ftbfs

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"ftbfs/internal/bfs"
	"ftbfs/internal/core"
	"ftbfs/internal/graph"
	"ftbfs/internal/vertexft"
)

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

// Save serialises the structure (without its base graph) in a text format;
// pair it with Graph.Write to persist a full deployment plan. SaveSlab
// writes the same structure as a version-3 binary record that loads without
// parsing; LoadStructure reads either.
func (s *Structure) Save(w io.Writer) error {
	return core.EncodeStructure(w, s.st)
}

// LoadStructure parses a structure previously written with Save (text
// versions 1) or SaveSlab (binary version 3), re-binding it against its base
// graph; the format is sniffed from the first bytes. The graph is frozen by
// this call. Text records are validated structurally with a BFS pass (use
// Verify for the full contract); binary records carry their serving arrays
// ready-built and are cross-validated without any search, so loading them is
// I/O-bound.
func LoadStructure(g *Graph, r io.Reader) (*Structure, error) {
	g.g.Freeze()
	data, err := readRecord(r)
	if err != nil {
		return nil, err
	}
	if core.IsSlabRecord(data) {
		rec, err := core.DecodeSlab(data, g.g)
		if err != nil {
			return nil, err
		}
		return slabStructure(g.g, rec)
	}
	st, err := core.DecodeStructure(bytes.NewReader(data), g.g)
	if err != nil {
		return nil, err
	}
	return newStructure(st), nil
}

// Save serialises the vertex structure (without its base graph) as a
// version-2 record of the structure text format. Edge-structure files keep
// their version-1 record; the two load through their own decoders. SaveSlab
// writes the binary version-3 record instead.
func (s *VertexStructure) Save(w io.Writer) error {
	return core.EncodeVertexRecord(w, s.st.G, &core.VertexRecord{
		S:     s.st.S,
		Pairs: s.st.Pairs,
		Edges: s.st.Edges,
	})
}

// LoadVertexStructure parses a vertex structure previously written with
// VertexStructure.Save (text version 2) or SaveSlab (binary version 3),
// re-binding it against its base graph; the format is sniffed from the first
// bytes. The graph is frozen by this call. Text records are validated
// structurally — H must contain every edge of the canonical BFS tree and
// preserve the intact BFS distances (two BFS passes); binary records carry
// the validated serving arrays directly and load without searching. Use
// Verify for the full per-failure contract.
func LoadVertexStructure(g *Graph, r io.Reader) (*VertexStructure, error) {
	g.g.Freeze()
	data, err := readRecord(r)
	if err != nil {
		return nil, err
	}
	if core.IsSlabRecord(data) {
		rec, err := core.DecodeSlab(data, g.g)
		if err != nil {
			return nil, err
		}
		return slabVertexStructure(g.g, rec)
	}
	rec, err := core.DecodeVertexRecord(bytes.NewReader(data), g.g)
	if err != nil {
		return nil, err
	}
	bt := bfs.From(g.g, rec.S)
	for v, id := range bt.ParentEdge {
		if id != graph.NoEdge && !rec.Edges.Contains(id) {
			return nil, fmt.Errorf("ftbfs: decoded vertex structure invalid: tree edge of vertex %d missing from H", v)
		}
	}
	s := newVertexStructure(&vertexft.Structure{G: g.g, S: rec.S, Edges: rec.Edges, Pairs: rec.Pairs})
	intact := s.intactDistances()
	for v := range intact {
		if intact[v] != bt.Dist[v] {
			return nil, fmt.Errorf("ftbfs: decoded vertex structure invalid: intact dist(%d) = %d, want %d",
				v, intact[v], bt.Dist[v])
		}
	}
	return s, nil
}
