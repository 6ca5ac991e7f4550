// Package wire implements the binary protocol spoken inside the cluster:
// every point query, batch and mutation the router sends a shard travels
// over it, as does every structure record and graph text a shard hands to
// another (THandoff/TGraph; every Backend serves both). A connection is
// persistent and carries length-prefixed frames both ways; requests carry
// client-chosen ids that responses echo, so many requests can be in flight
// on one connection (pipelining) and responses may arrive out of order.
// Client.Go starts a request and delivers its outcome as a *Call on a
// channel the caller owns, exactly once — a failed write included — unless
// the call is abandoned first; a Collector gathers the calls started on one
// channel and owns their timeouts, context ends and abandonment, so a
// fan-out collects its replies on one goroutine, and every blocking Client
// method is a one-call collection.
//
// Connection preamble (client → server, once): "FTBW" + version u32.
//
// Frame layout (protocol version 4), everything little-endian:
//
//	length  u32  bytes after this field: 1 (type) + 8 (id) + 4 (budget) + 8 (trace) + payload + 4 (crc)
//	type    u8   request or response type
//	id      u64  request id, echoed verbatim by the response
//	budget  u32  caller's remaining deadline budget in milliseconds (0 = none);
//	             meaningful on requests, zero on responses
//	trace   u64  telemetry trace ID (0 = untraced) — the wire twin of the
//	             X-Ftbfs-Trace header. A response to a traced request echoes
//	             it, and its payload then starts with a span section
//	payload      fixed-layout body, see below
//	crc     u32  CRC-32C (Castagnoli) over type+id+budget+trace+payload
//
// The trailing checksum is what makes "zero wrong answers under corrupted
// bytes" an honest guarantee: a flipped bit anywhere in a frame surfaces as a
// transport error (the connection is dropped and the caller fails over to
// another replica) instead of a silently wrong distance. The budget field
// propagates the caller's deadline shard-side so a server never works past
// the time its caller is still willing to wait; the trace field propagates
// the caller's trace ID so a sampled request's spans line up across layers.
//
// Span section (traced responses only, before the body): count u32, then
// count × (start_us i64, dur_us i64, len u32, name) — the spans the server
// recorded, which the client files into the caller's trace, the wire twin of
// the X-Ftbfs-Spans header. Untraced responses carry none, so their bytes
// are exactly those of protocol version 3.
//
// Point request payload (TDist / TDistAvoiding / TDistAvoidingVertex),
// 36 bytes: graph fingerprint u64, ε bits u64, source i32, algorithm i32,
// target v i32, a i32, b i32 — (a,b) are the failed edge's endpoints for
// TDistAvoiding, a is the failed vertex for TDistAvoidingVertex, both -1
// for TDist. Batch request payload: count u32, then count 40-byte slots
// (point payload + flags u32, bit 0 = vertex model). Responses: RDist
// carries dist i32; RBatch carries count u32 + dists + errCount u32 +
// errCount × (slot u32, len u32, message); RError carries an HTTP-equivalent
// status code u32 + len u32 + message, so the router relays a shard's
// refusal with the status a single node would answer.
//
// Mutation request payload (TMutate): graph lineage u64, count u32, then
// count 9-byte entries (op u8 — 0 insert, 1 delete — u i32, v i32). The
// RMutate response is fixed 32 bytes: lineage u64, new generation u64, new
// fingerprint u64, delta-rebuild count u32, full-rebuild count u32.
//
// Handoff payloads: THandoff is a 28-byte structure key (graph u64, ε bits
// u64, source i32, algorithm i32, flags u32 — bit 0 vertex model), TGraph a
// graph lineage u64; RHandoff carries the raw slab record, RGraph the
// canonical graph text.
//
// Payloads are bounded by frame type, alike on both sides: RHandoff and
// RGraph by MaxRecord (the HTTP body bound, so whatever /build accepts moves
// in one frame), every other frame by MaxPayload. A body past MaxPayload is
// buffered as its bytes arrive, never allocated from its announced length.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"ftbfs/internal/telemetry"
)

// Protocol constants.
const (
	// Version is the protocol version sent in the connection preamble.
	// Version 2 added the per-frame budget field and CRC-32C trailer;
	// version 3 added the per-frame trace field; version 4 gave the trace
	// field a meaning on responses (echo + span section).
	Version uint32 = 4

	// MaxPayload bounds the payload of every frame but a handoff answer; a
	// peer announcing more is protocol-corrupt and the connection is
	// dropped. A client refuses to send more; a server answers 413 rather
	// than write a larger response.
	MaxPayload = 8 << 20

	// MaxRecord bounds the payload of a handoff answer (RHandoff, RGraph):
	// one structure record or one graph text. It is also the HTTP body
	// bound (server.MaxBodyBytes), so a graph /build accepts fits in one
	// RGraph frame.
	MaxRecord = 64 << 20

	// MaxBatchSlots bounds the slots of one TBatch frame: the request stays
	// under 0.7 MB, the answer under MaxPayload at ~490-byte slot errors.
	MaxBatchSlots = 16384

	frameOverhead = 1 + 8 + 4 + 8 // type + id + budget + trace, covered by the length prefix
	frameTrailer  = 4             // CRC-32C over type+id+budget+trace+payload
)

// castagnoli is the CRC-32C table used for the per-frame checksum (hardware
// accelerated on amd64/arm64, and the same polynomial the slab format uses).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// preamble is the 8-byte connection header: magic + version.
var preamble = [8]byte{'F', 'T', 'B', 'W', byte(Version), 0, 0, 0}

// Request and response frame types.
const (
	TDist               byte = 0x01 // intact distance
	TDistAvoiding       byte = 0x02 // distance under an edge failure
	TDistAvoidingVertex byte = 0x03 // distance under a vertex failure
	TBatch              byte = 0x04 // mixed batch of the above
	THandoff            byte = 0x05 // fetch one structure record (shard-to-shard)
	TGraph              byte = 0x06 // fetch one graph's canonical text
	TMutate             byte = 0x07 // apply a mutation batch to a live graph
	RDist               byte = 0x81 // point answer
	RBatch              byte = 0x84 // batch answer
	RHandoff            byte = 0x85 // raw structure record bytes
	RGraph              byte = 0x86 // raw graph text bytes
	RMutate             byte = 0x87 // new generation identity + rebuild ledger
	RError              byte = 0xff // status code + message
)

// pointPayloadLen is the fixed point-request payload length.
const pointPayloadLen = 36

// slotLen is the fixed batch-slot length (point payload + flags).
const slotLen = pointPayloadLen + 4

// slotFlagVertex marks a batch slot as a vertex-model query.
const slotFlagVertex uint32 = 1

// PointQuery is one fully-resolved point query: the key (graph fingerprint,
// source, ε, algorithm) plus the target and failure. All fields travel
// verbatim — internal/server converts HTTP requests into this form (defaults
// resolved, out-of-range fields refused) for the router and for its own
// HTTP handlers alike, and the shard validates it against its store.
type PointQuery struct {
	FP      uint64
	EpsBits uint64
	Source  int32
	Alg     int32
	V       int32
	A, B    int32 // failed edge endpoints, or failed vertex in A; -1 unused
}

// Eps returns the ε the bits encode.
func (q *PointQuery) Eps() float64 { return math.Float64frombits(q.EpsBits) }

// BatchSlot is one entry of a batch request.
type BatchSlot struct {
	PointQuery
	Vertex bool // vertex-failure model (A is the failed vertex)
}

// handoffPayloadLen is the fixed THandoff request payload length.
const handoffPayloadLen = 28

// handoffFlagVertex marks a handoff key as a vertex-model structure.
const handoffFlagVertex uint32 = 1

// HandoffKey addresses one structure record in a shard-to-shard handoff:
// the full registry key, ε as its IEEE-754 bit pattern so the key on the
// receiving side is bit-identical to the one the router computed ranges for.
type HandoffKey struct {
	FP      uint64
	EpsBits uint64
	Source  int32
	Alg     int32
	Vertex  bool // vertex-failure model (EpsBits/Alg travel as zero)
}

// appendHandoffKey appends the fixed THandoff payload.
func appendHandoffKey(buf []byte, k *HandoffKey) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, k.FP)
	buf = le.AppendUint64(buf, k.EpsBits)
	buf = le.AppendUint32(buf, uint32(k.Source))
	buf = le.AppendUint32(buf, uint32(k.Alg))
	var flags uint32
	if k.Vertex {
		flags |= handoffFlagVertex
	}
	return le.AppendUint32(buf, flags)
}

// parseHandoffKey decodes a fixed THandoff payload.
func parseHandoffKey(payload []byte) (HandoffKey, error) {
	if len(payload) != handoffPayloadLen {
		return HandoffKey{}, fmt.Errorf("wire: handoff payload is %d bytes, want %d", len(payload), handoffPayloadLen)
	}
	le := binary.LittleEndian
	flags := le.Uint32(payload[24:])
	if flags&^handoffFlagVertex != 0 {
		return HandoffKey{}, fmt.Errorf("wire: handoff key has unknown flags %#x", flags)
	}
	return HandoffKey{
		FP:      le.Uint64(payload[0:]),
		EpsBits: le.Uint64(payload[8:]),
		Source:  int32(le.Uint32(payload[16:])),
		Alg:     int32(le.Uint32(payload[20:])),
		Vertex:  flags&handoffFlagVertex != 0,
	}, nil
}

// MutationWire is one edge mutation in a TMutate frame. Op is 0 for insert,
// 1 for delete — the same numbering graph.MutationOp uses, validated on parse
// so a corrupt op byte is a protocol error, not a surprise downstream.
type MutationWire struct {
	Op   uint8
	U, V int32
}

// mutEntryLen is the per-mutation entry length in a TMutate payload.
const mutEntryLen = 1 + 4 + 4

// mutateResponseLen is the fixed RMutate payload length.
const mutateResponseLen = 8 + 8 + 8 + 4 + 4

// MutateResult is the decoded RMutate payload: the new generation's identity
// plus the shard's rebuild ledger for this batch, which the router aggregates
// into its convergence counters.
type MutateResult struct {
	Lineage       uint64 // stable graph identity (unchanged by mutation)
	Gen           uint64 // new serving generation
	FP            uint64 // content fingerprint of the new generation
	RebuildsDelta uint32 // structures carried over by the delta fast path
	RebuildsFull  uint32 // structures rebuilt from scratch
}

// AppendMutate appends a TMutate payload: lineage u64, count u32, then count
// 9-byte entries (op u8, u i32, v i32).
func AppendMutate(buf []byte, lineage uint64, muts []MutationWire) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, lineage)
	buf = le.AppendUint32(buf, uint32(len(muts)))
	for i := range muts {
		buf = append(buf, muts[i].Op)
		buf = le.AppendUint32(buf, uint32(muts[i].U))
		buf = le.AppendUint32(buf, uint32(muts[i].V))
	}
	return buf
}

// parseMutate decodes a TMutate payload.
func parseMutate(payload []byte) (lineage uint64, muts []MutationWire, err error) {
	le := binary.LittleEndian
	if len(payload) < 12 {
		return 0, nil, fmt.Errorf("wire: mutate payload truncated")
	}
	lineage = le.Uint64(payload[0:])
	count := int(le.Uint32(payload[8:]))
	if count < 0 || len(payload) != 12+count*mutEntryLen {
		return 0, nil, fmt.Errorf("wire: mutate payload is %d bytes for %d mutations", len(payload), count)
	}
	muts = make([]MutationWire, count)
	off := 12
	for i := range muts {
		op := payload[off]
		if op > 1 {
			return 0, nil, fmt.Errorf("wire: mutate entry %d has unknown op %d", i, op)
		}
		muts[i] = MutationWire{
			Op: op,
			U:  int32(le.Uint32(payload[off+1:])),
			V:  int32(le.Uint32(payload[off+5:])),
		}
		off += mutEntryLen
	}
	return lineage, muts, nil
}

// appendMutateResponse appends the fixed RMutate payload.
func appendMutateResponse(buf []byte, r *MutateResult) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, r.Lineage)
	buf = le.AppendUint64(buf, r.Gen)
	buf = le.AppendUint64(buf, r.FP)
	buf = le.AppendUint32(buf, r.RebuildsDelta)
	return le.AppendUint32(buf, r.RebuildsFull)
}

// parseMutateResponse decodes the fixed RMutate payload.
func parseMutateResponse(payload []byte) (MutateResult, error) {
	if len(payload) != mutateResponseLen {
		return MutateResult{}, fmt.Errorf("wire: mutate response is %d bytes, want %d", len(payload), mutateResponseLen)
	}
	le := binary.LittleEndian
	return MutateResult{
		Lineage:       le.Uint64(payload[0:]),
		Gen:           le.Uint64(payload[8:]),
		FP:            le.Uint64(payload[16:]),
		RebuildsDelta: le.Uint32(payload[24:]),
		RebuildsFull:  le.Uint32(payload[28:]),
	}, nil
}

// Error is a non-transport failure answered by the server: an
// HTTP-equivalent status code plus message, so callers relaying to HTTP
// clients (and the router's retryable-status logic) need no translation.
type Error struct {
	Code int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("wire: status %d: %s", e.Code, e.Msg) }

// frameBufs recycles frame encode/decode buffers across connections and
// requests; point frames are tiny but batches are worth pooling. A buffer
// grown past MaxPayload (a handoff answer) is left to the collector, so one
// large transfer cannot pin tens of MB in the pool the point path draws from.
var frameBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func getBuf() *[]byte { return frameBufs.Get().(*[]byte) }
func putBuf(b *[]byte) {
	if cap(*b) <= MaxPayload {
		*b = (*b)[:0]
		frameBufs.Put(b)
	}
}

// payloadBound is the largest payload a frame of type typ may carry.
func payloadBound(typ byte) int {
	if typ == RHandoff || typ == RGraph {
		return MaxRecord
	}
	return MaxPayload
}

// largeChunk is the first allocation for a frame body past MaxPayload; the
// buffer doubles from there as the bytes arrive.
const largeChunk = 1 << 20

// appendFrame appends a complete frame to buf: header, payload, and the
// CRC-32C trailer over everything after the length prefix.
func appendFrame(buf []byte, typ byte, id uint64, budget uint32, trace uint64, payload []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(frameOverhead+len(payload)+frameTrailer))
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = binary.LittleEndian.AppendUint32(buf, budget)
	buf = binary.LittleEndian.AppendUint64(buf, trace)
	buf = append(buf, payload...)
	sum := crc32.Checksum(buf[start+4:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// writeFrame writes one frame to w.
func writeFrame(w io.Writer, typ byte, id uint64, budget uint32, trace uint64, payload []byte) error {
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendFrame((*buf)[:0], typ, id, budget, trace, payload)
	_, err := w.Write(*buf)
	return err
}

// readFrame reads one frame from r into buf (grown as needed), returning the
// payload as a sub-slice of the returned buffer — valid until the next call.
// A body past MaxPayload gets a buffer of its own, grown as its bytes
// arrive. A checksum mismatch is a transport error: the caller drops the
// connection rather than act on bytes the wire may have mangled.
func readFrame(r io.Reader, buf []byte) (typ byte, id uint64, budget uint32, trace uint64, payload, newBuf []byte, err error) {
	var hdr [4 + frameOverhead]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, 0, nil, buf, err
	}
	length := binary.LittleEndian.Uint32(hdr[:4])
	typ = hdr[4]
	if length < frameOverhead+frameTrailer || length > uint32(frameOverhead+payloadBound(typ)+frameTrailer) {
		return 0, 0, 0, 0, nil, buf, fmt.Errorf("wire: bad frame length %d", length)
	}
	id = binary.LittleEndian.Uint64(hdr[5:])
	budget = binary.LittleEndian.Uint32(hdr[13:])
	trace = binary.LittleEndian.Uint64(hdr[17:])
	n := int(length) - frameOverhead // payload + trailer
	if n > MaxPayload+frameTrailer {
		buf, err = readLarge(r, n)
	} else {
		if cap(buf) < n {
			buf = make([]byte, n, n+n/2)
		}
		buf = buf[:n]
		_, err = io.ReadFull(r, buf)
	}
	if err != nil {
		return 0, 0, 0, 0, nil, buf, err
	}
	sum := crc32.Checksum(hdr[4:], castagnoli)
	sum = crc32.Update(sum, castagnoli, buf[:n-frameTrailer])
	if got := binary.LittleEndian.Uint32(buf[n-frameTrailer:]); got != sum {
		return 0, 0, 0, 0, nil, buf, fmt.Errorf("wire: frame checksum mismatch (corrupted bytes)")
	}
	return typ, id, budget, trace, buf[:n-frameTrailer], buf, nil
}

// readLarge reads an n-byte frame body past MaxPayload into a buffer that
// starts at largeChunk and doubles as the bytes arrive, so a header that
// announces more than its peer sends costs what arrived, not what it
// announced.
func readLarge(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, largeChunk)
	for {
		m, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err != nil || len(buf) == n {
			return buf, err
		}
		grown := make([]byte, len(buf), min(n, 2*cap(buf)))
		copy(grown, buf)
		buf = grown
	}
}

// AppendPoint appends the fixed point payload of a TDist, TDistAvoiding or
// TDistAvoidingVertex request.
func AppendPoint(buf []byte, q *PointQuery) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, q.FP)
	buf = binary.LittleEndian.AppendUint64(buf, q.EpsBits)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.Source))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.Alg))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.V))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.A))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.B))
	return buf
}

// parsePoint decodes a fixed point payload.
func parsePoint(payload []byte) (PointQuery, error) {
	if len(payload) != pointPayloadLen {
		return PointQuery{}, fmt.Errorf("wire: point payload is %d bytes, want %d", len(payload), pointPayloadLen)
	}
	le := binary.LittleEndian
	return PointQuery{
		FP:      le.Uint64(payload[0:]),
		EpsBits: le.Uint64(payload[8:]),
		Source:  int32(le.Uint32(payload[16:])),
		Alg:     int32(le.Uint32(payload[20:])),
		V:       int32(le.Uint32(payload[24:])),
		A:       int32(le.Uint32(payload[28:])),
		B:       int32(le.Uint32(payload[32:])),
	}, nil
}

// AppendBatch appends a TBatch request payload.
func AppendBatch(buf []byte, slots []BatchSlot) []byte {
	buf = slices.Grow(buf, 4+len(slots)*slotLen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(slots)))
	for i := range slots {
		buf = AppendPoint(buf, &slots[i].PointQuery)
		var flags uint32
		if slots[i].Vertex {
			flags |= slotFlagVertex
		}
		buf = binary.LittleEndian.AppendUint32(buf, flags)
	}
	return buf
}

// parseBatch decodes a batch request payload.
func parseBatch(payload []byte) ([]BatchSlot, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("wire: batch payload truncated")
	}
	count := int(binary.LittleEndian.Uint32(payload))
	if count < 0 || len(payload) != 4+count*slotLen {
		return nil, fmt.Errorf("wire: batch payload is %d bytes for %d slots", len(payload), count)
	}
	slots := make([]BatchSlot, count)
	off := 4
	for i := range slots {
		q, err := parsePoint(payload[off : off+pointPayloadLen])
		if err != nil {
			return nil, err
		}
		flags := binary.LittleEndian.Uint32(payload[off+pointPayloadLen:])
		if flags&^slotFlagVertex != 0 {
			return nil, fmt.Errorf("wire: batch slot %d has unknown flags %#x", i, flags)
		}
		slots[i] = BatchSlot{PointQuery: q, Vertex: flags&slotFlagVertex != 0}
		off += slotLen
	}
	return slots, nil
}

// appendError appends an RError payload.
func appendError(buf []byte, code int, msg string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(code))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msg)))
	return append(buf, msg...)
}

// parseError decodes an RError payload.
func parseError(payload []byte) (*Error, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("wire: error payload truncated")
	}
	le := binary.LittleEndian
	code := int(le.Uint32(payload))
	n := int(le.Uint32(payload[4:]))
	if n < 0 || len(payload) != 8+n {
		return nil, fmt.Errorf("wire: error payload is %d bytes for a %d-byte message", len(payload), n)
	}
	if code < 100 || code > 599 {
		return nil, fmt.Errorf("wire: error status %d out of range", code)
	}
	return &Error{Code: code, Msg: string(payload[8:])}, nil
}

// appendSpans appends a traced response's span section.
func appendSpans(buf []byte, spans []telemetry.Span) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(len(spans)))
	for _, sp := range spans {
		buf = le.AppendUint64(buf, uint64(sp.StartUs))
		buf = le.AppendUint64(buf, uint64(sp.DurUs))
		buf = le.AppendUint32(buf, uint32(len(sp.Name)))
		buf = append(buf, sp.Name...)
	}
	return buf
}

// parseSpans splits a traced response's payload into its span section and
// the body behind it.
func parseSpans(payload []byte) (spans []telemetry.Span, body []byte, err error) {
	le := binary.LittleEndian
	if len(payload) < 4 {
		return nil, nil, fmt.Errorf("wire: span section truncated")
	}
	count := int(le.Uint32(payload))
	off := 4
	// Every span takes at least 20 bytes, which bounds the allocation by
	// the payload actually received.
	if count < 0 || count > (len(payload)-off)/20 {
		return nil, nil, fmt.Errorf("wire: span section claims %d spans in %d bytes", count, len(payload))
	}
	spans = make([]telemetry.Span, count)
	for i := range spans {
		if len(payload) < off+20 {
			return nil, nil, fmt.Errorf("wire: span %d truncated", i)
		}
		n := int(le.Uint32(payload[off+16:]))
		if n < 0 || len(payload) < off+20+n {
			return nil, nil, fmt.Errorf("wire: span %d name truncated", i)
		}
		spans[i] = telemetry.Span{
			StartUs: int64(le.Uint64(payload[off:])),
			DurUs:   int64(le.Uint64(payload[off+8:])),
			Name:    string(payload[off+20 : off+20+n]),
		}
		off += 20 + n
	}
	return spans, payload[off:], nil
}

// appendBatchResponse appends an RBatch payload: all dists, then the sparse
// error entries (slots whose errs entry is non-empty).
func appendBatchResponse(buf []byte, dists []int32, errs []string) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(len(dists)))
	for _, d := range dists {
		buf = le.AppendUint32(buf, uint32(d))
	}
	errCount := 0
	for _, e := range errs {
		if e != "" {
			errCount++
		}
	}
	buf = le.AppendUint32(buf, uint32(errCount))
	for i, e := range errs {
		if e == "" {
			continue
		}
		buf = le.AppendUint32(buf, uint32(i))
		buf = le.AppendUint32(buf, uint32(len(e)))
		buf = append(buf, e...)
	}
	return buf
}

// parseBatchResponse decodes an RBatch payload into dense dists and a
// same-length errs slice ("" = ok).
func parseBatchResponse(payload []byte) (dists []int32, errs []string, err error) {
	le := binary.LittleEndian
	if len(payload) < 4 {
		return nil, nil, fmt.Errorf("wire: batch response truncated")
	}
	count := int(le.Uint32(payload))
	off := 4
	if count < 0 || len(payload) < off+count*4+4 {
		return nil, nil, fmt.Errorf("wire: batch response is %d bytes for %d dists", len(payload), count)
	}
	dists = make([]int32, count)
	for i := range dists {
		dists[i] = int32(le.Uint32(payload[off:]))
		off += 4
	}
	errCount := int(le.Uint32(payload[off:]))
	off += 4
	if errCount < 0 || errCount > count {
		return nil, nil, fmt.Errorf("wire: batch response claims %d errors for %d slots", errCount, count)
	}
	errs = make([]string, count)
	for j := 0; j < errCount; j++ {
		if len(payload) < off+8 {
			return nil, nil, fmt.Errorf("wire: batch response truncated in error entry %d", j)
		}
		slot := int(le.Uint32(payload[off:]))
		n := int(le.Uint32(payload[off+4:]))
		off += 8
		if slot < 0 || slot >= count || n < 0 || len(payload) < off+n {
			return nil, nil, fmt.Errorf("wire: batch response error entry %d malformed", j)
		}
		errs[slot] = string(payload[off : off+n])
		off += n
	}
	if off != len(payload) {
		return nil, nil, fmt.Errorf("wire: batch response has %d trailing bytes", len(payload)-off)
	}
	return dists, errs, nil
}
