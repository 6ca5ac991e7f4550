package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"unsafe"

	"ftbfs/internal/graph"
)

// The binary record ("slab" format) stores a structure as flat
// little-endian arrays in exactly the layout the serving plane consumes, so
// loading is a one-shot read plus bounds validation instead of line parsing,
// endpoint re-binding and BFS recomputation. One record holds everything a
// query plan needs, ready to use, in one layout for both failure models:
//
//	header   64 bytes, fixed (see the slabOff offsets)
//	edges      bitset of E(H) edge ids               ⌈m/64⌉ × u64
//	reinforced bitset of E' ⊆ E(H), empty for vertex ⌈m/64⌉ × u64
//	intact     dist(s,·) in intact H                 n × i32
//	rowStart   H's own CSR row offsets               (n+1) × i32
//	arcs       H's packed CSR arcs (to, edge id)     arcCount × 2 × i32
//	parent     canonical BFS-tree parent in H        n × i32
//	parentEdge edge id of {parent[v], v}             n × i32
//	order      reachable vertices in BFS order       reachable × i32
//
// Every section starts 8-byte aligned (odd-count i32 sections are padded
// with zero bytes), so on little-endian hosts the integer sections are
// reinterpreted in place — the decoded record's arrays alias the input
// buffer, no per-element parsing at all; other hosts fall back to explicit
// little-endian reads. The payload is integrity-checked by length and a
// CRC-32C digest in the header, and every array is bounds-validated
// against the base graph before anything downstream touches it — a corrupt
// or adversarial record fails decoding, it cannot panic a query. The slab
// is the only structure record: loaders refuse any input that does not
// start with its magic, including records in the retired FTB3/FTB4
// layouts.
//
// The record stores no T0: Verify and CheckInvariants compute it from the
// base graph. Every construction keeps T0 inside H, and then T0 is exactly
// H's canonical BFS tree, which parent and parentEdge already carry.

// slabMagic is the first four bytes of a binary record.
var slabMagic = [4]byte{'F', 'T', 'B', '5'}

// slabHeaderSize is the fixed header length in bytes.
const slabHeaderSize = 64

// slab header field offsets.
const (
	slabOffMagic      = 0  // [4]byte
	slabOffModel      = 4  // u32
	slabOffN          = 8  // u32
	slabOffM          = 12 // u32
	slabOffSource     = 16 // u32
	slabOffAlg        = 20 // u32
	slabOffEps        = 24 // u64 (float64 bits)
	slabOffPairs      = 32 // u32
	slabOffReachable  = 36 // u32
	slabOffArcs       = 40 // u32 (directed arc count)
	slabOffGen        = 44 // u32 (base-graph generation)
	slabOffPayloadLen = 48 // u64
	slabOffChecksum   = 56 // u64 (CRC-32C of header[0:56] + payload)
)

// IsSlabRecord reports whether the byte prefix starts a binary record;
// loaders refuse anything else before decoding.
func IsSlabRecord(prefix []byte) bool {
	return len(prefix) >= len(slabMagic) && [4]byte(prefix[:4]) == slabMagic
}

// SlabRecord is the in-memory form of a binary record: the structure's
// metadata and edge sets plus the precomputed serving arrays (H's CSR, the
// intact distance vector, H's canonical BFS tree). Encoding captures them
// from a built plan; decoding hands them back validated, so the caller can
// assemble a query plan without running a single search.
type SlabRecord struct {
	Model Model
	S     int
	Eps   float64   // edge model only
	Alg   Algorithm // edge model only
	Pairs int       // vertex model only
	Gen   uint64    // base-graph generation

	Edges      *graph.EdgeSet
	Reinforced *graph.EdgeSet // nil in a decoded vertex record; nil encodes as empty

	Intact     []int32
	RowStart   []int32
	Arcs       []graph.Arc
	Parent     []int32
	ParentEdge []graph.EdgeID
	Order      []int32
}

// slabI32Bytes returns the padded byte length of an i32 section.
func slabI32Bytes(count int) int { return (count*4 + 7) &^ 7 }

// slabPayloadLen computes the exact payload length for the given shape.
func slabPayloadLen(n, m, arcCount, reachable int) int {
	return 2*((m+63)/64)*8 + // edges, reinforced
		slabI32Bytes(n) + // intact
		slabI32Bytes(n+1) + // rowStart
		arcCount*8 + // arcs: two i32 each, always 8-aligned
		slabI32Bytes(n) + // parent
		slabI32Bytes(n) + // parentEdge
		slabI32Bytes(reachable) // order
}

// slabWriter appends aligned little-endian sections to a preallocated buffer.
type slabWriter struct{ buf []byte }

// set appends an edge set's words; a nil set is written as count zero words.
func (w *slabWriter) set(s *graph.EdgeSet, count int) {
	if s == nil {
		w.buf = append(w.buf, make([]byte, count*8)...)
		return
	}
	for _, x := range s.Words() {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, x)
	}
}

func (w *slabWriter) i32s(xs []int32) {
	for _, x := range xs {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(x))
	}
	if len(xs)&1 == 1 {
		w.buf = append(w.buf, 0, 0, 0, 0)
	}
}

// EncodeSlabBytes serialises rec (validated against its base graph g) as a
// binary record and returns the full record bytes.
func EncodeSlabBytes(g *graph.Graph, rec *SlabRecord) ([]byte, error) {
	n, m := g.N(), g.M()
	if rec.S < 0 || rec.S >= n {
		return nil, fmt.Errorf("core: slab encode: source %d out of range [0,%d)", rec.S, n)
	}
	if rec.Model != ModelEdge && rec.Model != ModelVertex {
		return nil, fmt.Errorf("core: slab encode: unknown model %d", rec.Model)
	}
	if rec.Alg < Auto || rec.Alg > Greedy {
		return nil, fmt.Errorf("core: slab encode: unknown algorithm %d", rec.Alg)
	}
	if rec.Gen > math.MaxUint32 {
		return nil, fmt.Errorf("core: slab encode: generation %d exceeds the header's u32 slot", rec.Gen)
	}
	if len(rec.Intact) != n || len(rec.Parent) != n || len(rec.ParentEdge) != n || len(rec.RowStart) != n+1 {
		return nil, fmt.Errorf("core: slab encode: array lengths do not match n=%d", n)
	}
	arcCount, reachable := len(rec.Arcs), len(rec.Order)
	payloadLen := slabPayloadLen(n, m, arcCount, reachable)

	out := make([]byte, slabHeaderSize, slabHeaderSize+payloadLen)
	copy(out[slabOffMagic:], slabMagic[:])
	le := binary.LittleEndian
	le.PutUint32(out[slabOffModel:], uint32(rec.Model))
	le.PutUint32(out[slabOffN:], uint32(n))
	le.PutUint32(out[slabOffM:], uint32(m))
	le.PutUint32(out[slabOffSource:], uint32(rec.S))
	le.PutUint32(out[slabOffAlg:], uint32(rec.Alg))
	le.PutUint64(out[slabOffEps:], math.Float64bits(rec.Eps))
	le.PutUint32(out[slabOffPairs:], uint32(rec.Pairs))
	le.PutUint32(out[slabOffReachable:], uint32(reachable))
	le.PutUint32(out[slabOffArcs:], uint32(arcCount))
	le.PutUint32(out[slabOffGen:], uint32(rec.Gen))
	le.PutUint64(out[slabOffPayloadLen:], uint64(payloadLen))

	w := &slabWriter{buf: out}
	words := (m + 63) / 64
	w.set(rec.Edges, words)
	w.set(rec.Reinforced, words)
	w.i32s(rec.Intact)
	w.i32s(rec.RowStart)
	for _, a := range rec.Arcs {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(a.To))
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(a.ID))
	}
	w.i32s(rec.Parent)
	i32sFromEdgeIDs := make([]int32, len(rec.ParentEdge))
	for i, id := range rec.ParentEdge {
		i32sFromEdgeIDs[i] = int32(id)
	}
	w.i32s(i32sFromEdgeIDs)
	w.i32s(rec.Order)
	out = w.buf
	if got := len(out) - slabHeaderSize; got != payloadLen {
		return nil, fmt.Errorf("core: slab encode: payload %d bytes, want %d", got, payloadLen)
	}

	le.PutUint64(out[slabOffChecksum:], slabChecksum(out))
	return out, nil
}

// slabCRC is the CRC-32C (Castagnoli) table; hardware-accelerated on the
// platforms the serving plane runs on, so integrity checking stays far off
// the load-path critical time.
var slabCRC = crc32.MakeTable(crc32.Castagnoli)

// slabChecksum digests a whole record — header (minus the checksum field
// itself) plus payload — into the header's u64 checksum slot.
func slabChecksum(rec []byte) uint64 {
	c := crc32.Update(0, slabCRC, rec[:slabOffChecksum])
	return uint64(crc32.Update(c, slabCRC, rec[slabHeaderSize:]))
}

// EncodeSlab writes rec as a binary record.
func EncodeSlab(w io.Writer, g *graph.Graph, rec *SlabRecord) error {
	buf, err := EncodeSlabBytes(g, rec)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// slabHeader is a record's header, read and checked by readSlabHeader.
type slabHeader struct {
	model               Model
	n, m, source, pairs int
	alg                 Algorithm
	eps                 float64
	reachable, arcs     int
	gen                 uint64
}

// readSlabHeader reads a record's header and checks everything that needs
// no base graph: magic, model, algorithm, ε, the source and section counts
// against n and m, the exact payload length and the checksum.
func readSlabHeader(data []byte) (slabHeader, error) {
	if !IsSlabRecord(data) {
		return slabHeader{}, fmt.Errorf("core: not a binary structure record")
	}
	if len(data) < slabHeaderSize {
		return slabHeader{}, fmt.Errorf("core: binary record shorter than its header")
	}
	le := binary.LittleEndian
	u32 := func(off int) int { return int(le.Uint32(data[off:])) }
	h := slabHeader{
		model:     Model(u32(slabOffModel)),
		n:         u32(slabOffN),
		m:         u32(slabOffM),
		source:    u32(slabOffSource),
		pairs:     u32(slabOffPairs),
		alg:       Algorithm(u32(slabOffAlg)),
		eps:       math.Float64frombits(le.Uint64(data[slabOffEps:])),
		reachable: u32(slabOffReachable),
		arcs:      u32(slabOffArcs),
		gen:       uint64(u32(slabOffGen)),
	}
	if h.model != ModelEdge && h.model != ModelVertex {
		return h, fmt.Errorf("core: binary record has unknown model %d", h.model)
	}
	if h.alg < Auto || h.alg > Greedy {
		return h, fmt.Errorf("core: binary record has unknown algorithm %d", h.alg)
	}
	if math.IsNaN(h.eps) || math.IsInf(h.eps, 0) || h.eps < 0 {
		return h, fmt.Errorf("core: binary record has bad eps %v", h.eps)
	}
	if h.source >= h.n {
		return h, fmt.Errorf("core: binary record source %d out of range [0,%d)", h.source, h.n)
	}
	if h.reachable > h.n || h.arcs > 2*h.m {
		return h, fmt.Errorf("core: binary record header is inconsistent")
	}
	payloadLen := le.Uint64(data[slabOffPayloadLen:])
	if want := slabPayloadLen(h.n, h.m, h.arcs, h.reachable); payloadLen != uint64(want) {
		return h, fmt.Errorf("core: binary record payload %d bytes, want %d", payloadLen, want)
	}
	if uint64(len(data)-slabHeaderSize) != payloadLen {
		return h, fmt.Errorf("core: binary record truncated: %d payload bytes of %d", len(data)-slabHeaderSize, payloadLen)
	}
	if slabChecksum(data) != le.Uint64(data[slabOffChecksum:]) {
		return h, fmt.Errorf("core: binary record checksum mismatch")
	}
	return h, nil
}

// CheckSlab verifies a binary record's self-contained integrity — every
// header check, exact payload length and checksum — without a base graph.
// Warm-start scans use it to detect truncated, corrupt or retired record
// files cheaply; a record passing CheckSlab can still fail DecodeSlab's
// graph-dependent validation.
func CheckSlab(data []byte) error {
	_, err := readSlabHeader(data)
	return err
}

// nativeLE reports whether this host is little-endian — the on-disk layout
// matches memory layout, so integer sections can be served straight from the
// record buffer instead of element-by-element decoding.
var nativeLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// slabReader walks the payload's aligned sections with bounds checks.
type slabReader struct {
	buf []byte
	off int
}

// section bounds-checks and consumes `need` bytes, returning the section's
// start and whether an in-place view with the given alignment is allowed
// (little-endian host, aligned base — true in practice, since every section
// starts 8-aligned in a heap-allocated buffer).
func (r *slabReader) section(need, align int) ([]byte, bool, error) {
	if need < 0 || r.off+need > len(r.buf) {
		return nil, false, fmt.Errorf("core: slab record truncated at offset %d", r.off)
	}
	sec := r.buf[r.off:]
	r.off += need
	if need == 0 {
		return nil, false, nil
	}
	return sec, nativeLE && uintptr(unsafe.Pointer(&sec[0]))%uintptr(align) == 0, nil
}

func (r *slabReader) words(count int) ([]uint64, error) {
	sec, inPlace, err := r.section(count*8, 8)
	if err != nil || count == 0 {
		return nil, err
	}
	if inPlace {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&sec[0])), count), nil
	}
	out := make([]uint64, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(sec[i*8:])
	}
	return out, nil
}

func (r *slabReader) i32s(count int) ([]int32, error) {
	sec, inPlace, err := r.section(slabI32Bytes(count), 4)
	if err != nil || count == 0 {
		return nil, err
	}
	if inPlace {
		return unsafe.Slice((*int32)(unsafe.Pointer(&sec[0])), count), nil
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(sec[i*4:]))
	}
	return out, nil
}

// edgeIDs reads an i32 section as edge ids (EdgeID is an int32).
func (r *slabReader) edgeIDs(count int) ([]graph.EdgeID, error) {
	sec, inPlace, err := r.section(slabI32Bytes(count), 4)
	if err != nil || count == 0 {
		return nil, err
	}
	if inPlace {
		return unsafe.Slice((*graph.EdgeID)(unsafe.Pointer(&sec[0])), count), nil
	}
	out := make([]graph.EdgeID, count)
	for i := range out {
		out[i] = graph.EdgeID(int32(binary.LittleEndian.Uint32(sec[i*4:])))
	}
	return out, nil
}

// The in-place Arc view relies on Arc being exactly its two packed int32s.
var _ = [1]byte{}[unsafe.Sizeof(graph.Arc{})-8]

// arcs reads a packed (to, edge id) pair section as CSR arcs; the Arc struct
// is exactly two int32s, so the pairs are an Arc array already.
func (r *slabReader) arcs(count int) ([]graph.Arc, error) {
	sec, inPlace, err := r.section(count*8, 8)
	if err != nil || count == 0 {
		return nil, err
	}
	if inPlace {
		return unsafe.Slice((*graph.Arc)(unsafe.Pointer(&sec[0])), count), nil
	}
	out := make([]graph.Arc, count)
	for i := range out {
		out[i] = graph.Arc{
			To: int32(binary.LittleEndian.Uint32(sec[i*8:])),
			ID: graph.EdgeID(int32(binary.LittleEndian.Uint32(sec[i*8+4:]))),
		}
	}
	return out, nil
}

// DecodeSlab parses a binary record against its base graph g: after the
// header checks CheckSlab runs too, it checks the record's generation and
// shape against g and validates every cross-reference (arc ids against
// E(H), parent edges against the base graph's endpoints, BFS-order
// consistency of the tree arrays) so the returned record is safe to serve
// from directly. On little-endian hosts the record's integer sections are
// in-place views of data — the caller must not modify the buffer after a
// successful decode (loaders read a record file once and hand the bytes
// over, which is the point: load cost is validation, not parsing).
func DecodeSlab(data []byte, g *graph.Graph) (*SlabRecord, error) {
	h, err := readSlabHeader(data)
	if err != nil {
		return nil, err
	}
	if h.gen != g.Generation() {
		return nil, fmt.Errorf("core: binary record is for generation %d, base graph is generation %d", h.gen, g.Generation())
	}
	n, m := g.N(), g.M()
	if h.n != n || h.m != m {
		return nil, fmt.Errorf("core: binary record is for a %d-vertex %d-edge graph, base graph has n=%d m=%d",
			h.n, h.m, n, m)
	}

	r := &slabReader{buf: data[slabHeaderSize:]}
	rec := &SlabRecord{Model: h.model, S: h.source, Eps: h.eps, Alg: h.alg, Pairs: h.pairs, Gen: h.gen}
	readSet := func() (*graph.EdgeSet, error) {
		ws, err := r.words((m + 63) / 64)
		if err != nil {
			return nil, err
		}
		return graph.NewEdgeSetFromWords(m, ws)
	}
	if rec.Edges, err = readSet(); err != nil {
		return nil, err
	}
	if rec.Model == ModelEdge {
		if rec.Reinforced, err = readSet(); err != nil {
			return nil, err
		}
	} else {
		// A vertex record writes its reinforced section as zero words:
		// check them in place and leave rec.Reinforced nil.
		ws, err := r.words((m + 63) / 64)
		if err != nil {
			return nil, err
		}
		reinforced := 0
		for _, w := range ws {
			reinforced += bits.OnesCount64(w)
		}
		if reinforced != 0 {
			return nil, fmt.Errorf("core: binary record: vertex record with %d reinforced edges", reinforced)
		}
	}
	if rec.Intact, err = r.i32s(n); err != nil {
		return nil, err
	}
	if rec.RowStart, err = r.i32s(n + 1); err != nil {
		return nil, err
	}
	if rec.Arcs, err = r.arcs(h.arcs); err != nil {
		return nil, err
	}
	if rec.Parent, err = r.i32s(n); err != nil {
		return nil, err
	}
	if rec.ParentEdge, err = r.edgeIDs(n); err != nil {
		return nil, err
	}
	if rec.Order, err = r.i32s(h.reachable); err != nil {
		return nil, err
	}
	if err := validateSlab(rec, g); err != nil {
		return nil, err
	}
	return rec, nil
}

// validateSlab cross-checks the decoded arrays against each other and the
// base graph: it guarantees the CSR, tree arrays and BFS order are mutually
// consistent, which is what lets plan assembly and tree.BuildAncestry run on
// them without re-deriving anything.
func validateSlab(rec *SlabRecord, g *graph.Graph) error {
	n, m := g.N(), g.M()
	if rec.Reinforced != nil { // an edge record's; a vertex record has none
		edges := rec.Edges.Words()
		for i, w := range rec.Reinforced.Words() {
			if w&^edges[i] != 0 {
				return fmt.Errorf("core: binary record: reinforced edges outside E(H)")
			}
		}
	}
	// H's CSR: shape-validated by NewCSR below; here bind each arc to E(H).
	for i, a := range rec.Arcs {
		if a.To < 0 || int(a.To) >= n || a.ID < 0 || int(a.ID) >= m {
			return fmt.Errorf("core: binary record: arc %d out of range", i)
		}
		if !rec.Edges.Contains(a.ID) {
			return fmt.Errorf("core: binary record: arc %d uses edge %d outside E(H)", i, a.ID)
		}
	}
	// Tree arrays: parents and parent edges must name real H edges with
	// consistent BFS depths.
	for v := 0; v < n; v++ {
		p, id, d := rec.Parent[v], rec.ParentEdge[v], rec.Intact[v]
		if d < -1 || d > int32(n) {
			return fmt.Errorf("core: binary record: intact dist of %d is %d", v, d)
		}
		if p < 0 {
			if p != -1 || id != graph.NoEdge {
				return fmt.Errorf("core: binary record: vertex %d has no parent but parent edge %d", v, id)
			}
			// Only the source and unreachable vertices have no parent: a
			// reached orphan would sit in no subtree of the plan's tree.
			if d != -1 && (v != rec.S || d != 0) {
				return fmt.Errorf("core: binary record: vertex %d at depth %d has no parent", v, d)
			}
			continue
		}
		if int(p) >= n || id < 0 || int(id) >= m {
			return fmt.Errorf("core: binary record: parent link of %d out of range", v)
		}
		e := g.EdgeByID(id)
		if !(e.U == int32(v) && e.V == p || e.U == p && e.V == int32(v)) {
			return fmt.Errorf("core: binary record: parent edge %d does not join %d and %d", id, v, p)
		}
		if !rec.Edges.Contains(id) {
			return fmt.Errorf("core: binary record: parent edge %d of %d outside E(H)", id, v)
		}
		if rec.Intact[p] < 0 || d != rec.Intact[p]+1 {
			return fmt.Errorf("core: binary record: vertex %d at depth %d under parent at depth %d", v, d, rec.Intact[p])
		}
	}
	// BFS order: the source first, each vertex exactly once, reachable set
	// matched exactly, depths nondecreasing (so parents precede children and
	// a bottom-up pass over the order is safe).
	seen := make([]bool, n)
	reach := 0
	for _, d := range rec.Intact {
		if d >= 0 {
			reach++
		}
	}
	if reach != len(rec.Order) {
		return fmt.Errorf("core: binary record: %d vertices in BFS order, %d have finite distance", len(rec.Order), reach)
	}
	prev := int32(0)
	for i, v := range rec.Order {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("core: binary record: BFS order entry %d invalid", i)
		}
		seen[v] = true
		d := rec.Intact[v]
		if d < 0 || d < prev {
			return fmt.Errorf("core: binary record: BFS order not sorted by distance at entry %d", i)
		}
		prev = d
		if i == 0 && (int(v) != rec.S || d != 0) {
			return fmt.Errorf("core: binary record: BFS order does not start at the source")
		}
	}
	return nil
}
