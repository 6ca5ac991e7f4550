package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"ftbfs/internal/telemetry"
)

// Backend answers decoded wire queries; internal/server implements it with
// the same dispatch its HTTP handlers call, which is what makes the two
// transports answer-identical by construction. The context carries the
// caller's deadline budget (derived from the frame's budget field): a
// backend should stop working when it expires and answer with a
// 504-equivalent error. A traced request's context carries a trace whose
// spans travel back in the response frame.
type Backend interface {
	// WirePoint answers one point query of the given request type
	// (TDist / TDistAvoiding / TDistAvoidingVertex).
	WirePoint(ctx context.Context, typ byte, q *PointQuery) (int32, *Error)
	// WireBatch answers a batch; dists and errs are parallel to slots, with
	// "" marking a slot that succeeded.
	WireBatch(ctx context.Context, slots []BatchSlot) (dists []int32, errs []string)
	// WireMutate applies one mutation batch to the graph of the given
	// lineage (or answers an in-protocol error: 404 unknown graph, 400
	// invalid batch, 500 persist fault).
	WireMutate(ctx context.Context, lineage uint64, muts []MutationWire) (MutateResult, *Error)
}

// HandoffBackend is the optional shard-to-shard extension of Backend:
// backends implementing it additionally serve THandoff/TGraph frames, which
// is how structures stream between shards during a rebalance. A backend
// without it answers those frames with an in-protocol 501 — the puller then
// falls back to the HTTP handoff surface.
type HandoffBackend interface {
	// HandoffRecord returns the record bytes of one held structure (or an
	// in-protocol error: 404 not held, 413 record exceeds MaxPayload).
	HandoffRecord(ctx context.Context, k *HandoffKey) ([]byte, *Error)
	// HandoffGraph returns the canonical text of one registered graph.
	HandoffGraph(ctx context.Context, fp uint64) ([]byte, *Error)
}

// Serve accepts wire connections on ln until ctx is cancelled or the
// listener fails, answering frames through backend. Each connection is
// handled by its own goroutine; frames on one connection are answered in
// order (responses carry the request id, so pipelined clients don't care).
// Serve closes every live connection on shutdown and only then returns.
func Serve(ctx context.Context, ln net.Listener, backend Backend) error {
	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
		wg    sync.WaitGroup
	)
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	var err error
	for {
		var c net.Conn
		c, err = ln.Accept()
		if err != nil {
			break
		}
		mu.Lock()
		conns[c] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(conns, c)
				mu.Unlock()
				c.Close()
			}()
			serveConn(ctx, c, backend)
		}()
	}
	mu.Lock()
	for c := range conns {
		c.Close()
	}
	mu.Unlock()
	wg.Wait()
	if ctx.Err() != nil {
		return nil // orderly shutdown
	}
	return err
}

// serveConn validates the preamble then answers frames until the peer
// disconnects or breaks the protocol. A frame failing its checksum is
// treated like any other transport fault: the connection is dropped.
func serveConn(ctx context.Context, c net.Conn, backend Backend) {
	br := bufio.NewReaderSize(c, 32<<10)
	bw := bufio.NewWriterSize(c, 32<<10)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil || got != preamble {
		return
	}
	buf := *getBuf()
	defer func() { putBuf(&buf) }()
	for {
		typ, id, budget, trace, payload, newBuf, err := readFrame(br, buf[:cap(buf)])
		buf = newBuf
		if err != nil {
			return
		}
		if err := answer(ctx, bw, backend, typ, id, budget, trace, payload); err != nil {
			return
		}
		// Flush only when the pipeline drains: back-to-back pipelined
		// requests share one syscall on the way out.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// errProtocol tells serveConn to drop the connection: the peer sent a frame
// that cannot be answered in-protocol.
var errProtocol = errors.New("wire: protocol error")

// answer decodes and answers one request frame. A non-zero budget bounds the
// backend's work with a context deadline — the caller has already given up
// once it expires, so finishing the computation would be wasted work. A
// non-zero trace hands the backend a telemetry trace with the caller's ID,
// whose spans travel back in the response; the untraced hot path pays a
// single branch.
func answer(ctx context.Context, w io.Writer, backend Backend, typ byte, id uint64, budget uint32, trace uint64, payload []byte) error {
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(budget)*time.Millisecond)
		defer cancel()
	}
	var tr *telemetry.Trace
	if trace != 0 {
		tr = telemetry.NewTrace(trace)
		ctx = telemetry.WithTrace(ctx, tr)
	}
	buf := getBuf()
	defer putBuf(buf)
	out := (*buf)[:0]
	switch typ {
	case TDist, TDistAvoiding, TDistAvoidingVertex:
		q, err := parsePoint(payload)
		if err != nil {
			return errProtocol
		}
		d, werr := backend.WirePoint(ctx, typ, &q)
		if werr != nil {
			return writeResponse(w, RError, id, tr, appendError(out, werr.Code, werr.Msg))
		}
		return writeResponse(w, RDist, id, tr, binary.LittleEndian.AppendUint32(out, uint32(d)))
	case TBatch:
		slots, err := parseBatch(payload)
		if err != nil {
			return errProtocol
		}
		dists, errs := backend.WireBatch(ctx, slots)
		return writeResponse(w, RBatch, id, tr, appendBatchResponse(out, dists, errs))
	case THandoff:
		k, err := parseHandoffKey(payload)
		if err != nil {
			return errProtocol
		}
		hb, ok := backend.(HandoffBackend)
		if !ok {
			return writeResponse(w, RError, id, tr, appendError(out, 501, "handoff not supported"))
		}
		data, werr := hb.HandoffRecord(ctx, &k)
		if werr != nil {
			return writeResponse(w, RError, id, tr, appendError(out, werr.Code, werr.Msg))
		}
		return writeResponse(w, RHandoff, id, tr, data)
	case TGraph:
		if len(payload) != 8 {
			return errProtocol
		}
		fp := uint64(payload[0]) | uint64(payload[1])<<8 | uint64(payload[2])<<16 | uint64(payload[3])<<24 |
			uint64(payload[4])<<32 | uint64(payload[5])<<40 | uint64(payload[6])<<48 | uint64(payload[7])<<56
		hb, ok := backend.(HandoffBackend)
		if !ok {
			return writeResponse(w, RError, id, tr, appendError(out, 501, "handoff not supported"))
		}
		data, werr := hb.HandoffGraph(ctx, fp)
		if werr != nil {
			return writeResponse(w, RError, id, tr, appendError(out, werr.Code, werr.Msg))
		}
		return writeResponse(w, RGraph, id, tr, data)
	case TMutate:
		lineage, muts, err := parseMutate(payload)
		if err != nil {
			return errProtocol
		}
		res, werr := backend.WireMutate(ctx, lineage, muts)
		if werr != nil {
			return writeResponse(w, RError, id, tr, appendError(out, werr.Code, werr.Msg))
		}
		return writeResponse(w, RMutate, id, tr, appendMutateResponse(out, &res))
	default:
		return errProtocol
	}
}

// writeResponse writes one response frame. An untraced response (tr nil) is
// the bare body with a zero trace field; a traced one echoes the trace ID and
// prefixes the body with the spans the backend recorded.
func writeResponse(w io.Writer, typ byte, id uint64, tr *telemetry.Trace, body []byte) error {
	if tr == nil {
		return writeFrame(w, typ, id, 0, 0, body)
	}
	buf := getBuf()
	defer putBuf(buf)
	*buf = append(appendSpans((*buf)[:0], tr.Spans()), body...)
	return writeFrame(w, typ, id, 0, tr.ID(), *buf)
}
