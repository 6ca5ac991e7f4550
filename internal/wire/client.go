package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ftbfs/internal/telemetry"
)

// Client is a pooled, pipelining wire client for one server address. It
// keeps a small fixed set of persistent connections; concurrent requests are
// spread round-robin and multiplexed by request id, so one connection can
// carry many in-flight requests (hedged reads and scatter-gather sub-batches
// share connections instead of dialing). A Client is safe for concurrent use
// and survives server restarts: a dead connection fails its in-flight
// requests with a transport error and is re-dialed on the next request.
type Client struct {
	addr        string
	dialTimeout time.Duration
	reqTimeout  time.Duration

	ids   atomic.Uint64
	next  atomic.Uint64
	mu    sync.Mutex // guards conns slots during (re)dial
	conns []*clientConn
}

// response is what the reader goroutine hands back to a waiter.
type response struct {
	typ     byte
	payload []byte           // owned by the waiter
	spans   []telemetry.Span // a traced response's span section
	err     error
}

// chanPool recycles waiter channels: a channel that delivered its response
// is drained and safe to reuse, and point queries are frequent enough that
// the per-request make(chan) shows up. Channels on the forget path (timeout
// or cancel) are simply dropped — the read loop may still send to them, so
// they must not be reused.
var chanPool = sync.Pool{New: func() any { return make(chan response, 1) }}

// ErrFrameTooLarge wraps a client's refusal of a request payload over
// MaxPayload. Nothing was sent, so it is no fault of the peer.
var ErrFrameTooLarge = errors.New("wire: request exceeds the frame bound")

// timerPool recycles request timers; Reset after a receive or Stop is safe
// with Go 1.23+ timer semantics.
var timerPool = sync.Pool{}

// clientConn is one multiplexed connection.
type clientConn struct {
	c  net.Conn
	bw *bufio.Writer

	wmu   sync.Mutex   // serialises frame writes
	wpend atomic.Int64 // senders holding or waiting on wmu

	pmu     sync.Mutex
	pending map[uint64]chan response
	dead    bool
}

// NewClient returns a client for addr; connections are dialed lazily. conns
// bounds the connection pool (values < 1 mean 4 — enough to spread syscall
// load without hoarding server sockets; pipelining provides the parallelism).
func NewClient(addr string, conns int) *Client {
	if conns < 1 {
		conns = 4
	}
	return &Client{
		addr:        addr,
		dialTimeout: 2 * time.Second,
		reqTimeout:  30 * time.Second,
		conns:       make([]*clientConn, conns),
	}
}

// Addr returns the server address the client dials.
func (c *Client) Addr() string { return c.addr }

// Close tears down every pooled connection; in-flight requests fail with a
// transport error. The client remains usable (connections re-dial).
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cc := range c.conns {
		if cc != nil {
			cc.fail(fmt.Errorf("wire: client closed"))
			c.conns[i] = nil
		}
	}
}

// conn returns a live connection from the pool slot the round-robin counter
// picks, dialing if the slot is empty or its connection died. Dialing runs
// outside the pool lock so a slow dial to one address never stalls requests
// that can ride an existing connection.
func (c *Client) conn() (*clientConn, error) {
	slot := int(c.next.Add(1) % uint64(len(c.conns)))
	c.mu.Lock()
	cc := c.conns[slot]
	c.mu.Unlock()
	if cc != nil && !cc.isDead() {
		return cc, nil
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if _, err := nc.Write(preamble[:]); err != nil {
		nc.Close()
		return nil, err
	}
	ncc := &clientConn{
		c:       nc,
		bw:      bufio.NewWriterSize(nc, 32<<10),
		pending: make(map[uint64]chan response),
	}
	c.mu.Lock()
	if cur := c.conns[slot]; cur != nil && cur != cc && !cur.isDead() {
		// Lost a dial race; use the winner and drop ours (no reader yet).
		c.mu.Unlock()
		nc.Close()
		return cur, nil
	}
	c.conns[slot] = ncc
	c.mu.Unlock()
	go ncc.readLoop()
	return ncc, nil
}

// isDead reports whether the connection has failed.
func (cc *clientConn) isDead() bool {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	return cc.dead
}

// readLoop dispatches response frames to their waiters until the connection
// dies, then fails everything still pending.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.c, 32<<10)
	var buf []byte
	for {
		typ, id, _, trace, payload, newBuf, err := readFrame(br, buf)
		buf = newBuf
		var spans []telemetry.Span
		if err == nil && trace != 0 {
			spans, payload, err = parseSpans(payload)
		}
		if err != nil {
			cc.fail(fmt.Errorf("wire: connection lost: %w", err))
			return
		}
		cc.pmu.Lock()
		ch, ok := cc.pending[id]
		delete(cc.pending, id)
		cc.pmu.Unlock()
		if ok {
			// Copy out of the read buffer: the waiter owns its payload.
			p := make([]byte, len(payload))
			copy(p, payload)
			ch <- response{typ: typ, payload: p, spans: spans}
		}
	}
}

// fail marks the connection dead, closes it, and fails all waiters.
func (cc *clientConn) fail(err error) {
	cc.pmu.Lock()
	if cc.dead {
		cc.pmu.Unlock()
		return
	}
	cc.dead = true
	pending := cc.pending
	cc.pending = nil
	cc.pmu.Unlock()
	cc.c.Close()
	for _, ch := range pending {
		ch <- response{err: err}
	}
}

// send registers a waiter and writes one request frame.
func (cc *clientConn) send(typ byte, id uint64, budget uint32, trace uint64, payload []byte) (chan response, error) {
	ch := chanPool.Get().(chan response)
	cc.pmu.Lock()
	if cc.dead {
		cc.pmu.Unlock()
		return nil, fmt.Errorf("wire: connection lost")
	}
	cc.pending[id] = ch
	cc.pmu.Unlock()

	cc.wpend.Add(1)
	cc.wmu.Lock()
	buf := getBuf()
	*buf = appendFrame((*buf)[:0], typ, id, budget, trace, payload)
	_, err := cc.bw.Write(*buf)
	// Group flush: if another sender is already waiting on wmu, leave our
	// frame buffered — the last writer in the burst sees the count hit zero
	// and pays one syscall for everyone. Under light load the count is zero
	// immediately and this degenerates to flush-per-request.
	if err == nil && cc.wpend.Add(-1) == 0 {
		err = cc.bw.Flush()
	} else if err != nil {
		cc.wpend.Add(-1)
	}
	putBuf(buf)
	cc.wmu.Unlock()
	if err != nil {
		cc.fail(fmt.Errorf("wire: write failed: %w", err))
		return nil, err
	}
	return ch, nil
}

// forget abandons a waiter. Ids keep frames matched, so the late response
// of an abandoned request is simply dropped by the read loop and the
// connection stays good for every other request pipelined on it. Only when
// kill is set — the caller's deadline or the request timeout ran out, so
// the peer may be hung — is the connection failed, lest a hung server pin
// it forever.
func (cc *clientConn) forget(id uint64, kill bool, err error) {
	cc.pmu.Lock()
	_, mine := cc.pending[id]
	delete(cc.pending, id)
	cc.pmu.Unlock()
	if mine && kill {
		cc.fail(err)
	}
}

// do sends one request and waits for its response. The caller's remaining
// context deadline travels in the frame's budget field (rounded up to a whole
// millisecond) so the server stops working when the caller stops waiting; a
// telemetry trace in the context travels in the trace field so shard-side
// spans share the caller's trace ID, and the spans the response carries back
// are filed into that trace. A caller that cancels (a hedge loser, a client
// that hung up) abandons only its own request. A payload over MaxPayload is
// refused with ErrFrameTooLarge, not sent: the server would drop the
// connection, and every request pipelined on it, rather than read it.
func (c *Client) do(ctx context.Context, typ byte, payload []byte) (response, error) {
	if len(payload) > MaxPayload {
		return response{}, fmt.Errorf("%w: %d bytes, at most %d", ErrFrameTooLarge, len(payload), MaxPayload)
	}
	cc, err := c.conn()
	if err != nil {
		return response{}, err
	}
	var trace uint64
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		trace = tr.ID()
	}
	timeout := c.reqTimeout
	var budget uint32
	if dl, ok := ctx.Deadline(); ok {
		d := time.Until(dl)
		if d <= 0 {
			return response{}, context.DeadlineExceeded
		}
		if d < timeout {
			timeout = d
		}
		ms := int64((d + time.Millisecond - 1) / time.Millisecond)
		if ms > int64(^uint32(0)) {
			budget = ^uint32(0)
		} else {
			budget = uint32(ms)
		}
	}
	id := c.ids.Add(1)
	ch, err := cc.send(typ, id, budget, trace, payload)
	if err != nil {
		return response{}, err
	}
	var timer *time.Timer
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(timeout)
		timer = t
	} else {
		timer = time.NewTimer(timeout)
	}
	select {
	case r := <-ch:
		timer.Stop()
		timerPool.Put(timer)
		// The channel delivered its single response; it is empty and safe
		// to reuse.
		chanPool.Put(ch)
		if tr := telemetry.TraceFrom(ctx); tr != nil {
			for _, sp := range r.spans {
				tr.AddSpan(sp)
			}
		}
		return r, r.err
	case <-ctx.Done():
		err := ctx.Err()
		cc.forget(id, !errors.Is(err, context.Canceled), err)
		timer.Stop()
		timerPool.Put(timer)
		return response{}, err
	case <-timer.C:
		err := fmt.Errorf("wire: request timed out after %v", timeout)
		cc.forget(id, true, err)
		timerPool.Put(timer)
		return response{}, err
	}
}

// Point answers one point query. A non-nil *Error is a definitive in-protocol
// answer from the server (mirroring an HTTP status); a non-nil error is a
// transport failure the caller may retry elsewhere.
func (c *Client) Point(ctx context.Context, typ byte, q *PointQuery) (int32, *Error, error) {
	buf := getBuf()
	payload := appendPoint((*buf)[:0], q)
	r, err := c.do(ctx, typ, payload)
	putBuf(buf)
	if err != nil {
		return 0, nil, err
	}
	switch r.typ {
	case RDist:
		if len(r.payload) != 4 {
			return 0, nil, fmt.Errorf("wire: bad point response length %d", len(r.payload))
		}
		return int32(uint32(r.payload[0]) | uint32(r.payload[1])<<8 | uint32(r.payload[2])<<16 | uint32(r.payload[3])<<24), nil, nil
	case RError:
		werr, perr := parseError(r.payload)
		if perr != nil {
			return 0, nil, perr
		}
		return 0, werr, nil
	default:
		return 0, nil, fmt.Errorf("wire: unexpected response type %#x", r.typ)
	}
}

// FetchRecord fetches the record bytes of one structure from a peer shard
// over the persistent connection pool. A non-nil *Error is the peer's
// definitive in-protocol answer (404 not held, 413 record exceeds the frame
// bound); a non-nil error is a transport failure. Either way the handoff
// puller falls back to the peer's HTTP record surface, whose body bound
// (server.MaxBodyBytes) is larger than MaxPayload.
func (c *Client) FetchRecord(ctx context.Context, k *HandoffKey) ([]byte, *Error, error) {
	buf := getBuf()
	payload := appendHandoffKey((*buf)[:0], k)
	r, err := c.do(ctx, THandoff, payload)
	putBuf(buf)
	if err != nil {
		return nil, nil, err
	}
	switch r.typ {
	case RHandoff:
		return r.payload, nil, nil
	case RError:
		werr, perr := parseError(r.payload)
		if perr != nil {
			return nil, nil, perr
		}
		return nil, werr, nil
	default:
		return nil, nil, fmt.Errorf("wire: unexpected response type %#x", r.typ)
	}
}

// FetchGraph fetches the canonical text of one graph from a peer shard —
// what a handoff receiver registers before importing the graph's structures.
// Error semantics match FetchRecord.
func (c *Client) FetchGraph(ctx context.Context, fp uint64) ([]byte, *Error, error) {
	var payload [8]byte
	payload[0], payload[1], payload[2], payload[3] = byte(fp), byte(fp>>8), byte(fp>>16), byte(fp>>24)
	payload[4], payload[5], payload[6], payload[7] = byte(fp>>32), byte(fp>>40), byte(fp>>48), byte(fp>>56)
	r, err := c.do(ctx, TGraph, payload[:])
	if err != nil {
		return nil, nil, err
	}
	switch r.typ {
	case RGraph:
		return r.payload, nil, nil
	case RError:
		werr, perr := parseError(r.payload)
		if perr != nil {
			return nil, nil, perr
		}
		return nil, werr, nil
	default:
		return nil, nil, fmt.Errorf("wire: unexpected response type %#x", r.typ)
	}
}

// Mutate applies one edge-mutation batch to the graph of the given lineage on
// a shard and returns the new generation's identity plus the shard's rebuild
// ledger. A non-nil *Error is the shard's definitive in-protocol answer (404
// graph not held there, 400 invalid batch, 500 persist fault); a non-nil
// error is a transport failure.
func (c *Client) Mutate(ctx context.Context, lineage uint64, muts []MutationWire) (MutateResult, *Error, error) {
	buf := getBuf()
	payload := appendMutate((*buf)[:0], lineage, muts)
	r, err := c.do(ctx, TMutate, payload)
	putBuf(buf)
	if err != nil {
		return MutateResult{}, nil, err
	}
	switch r.typ {
	case RMutate:
		res, perr := parseMutateResponse(r.payload)
		if perr != nil {
			return MutateResult{}, nil, perr
		}
		return res, nil, nil
	case RError:
		werr, perr := parseError(r.payload)
		if perr != nil {
			return MutateResult{}, nil, perr
		}
		return MutateResult{}, werr, nil
	default:
		return MutateResult{}, nil, fmt.Errorf("wire: unexpected response type %#x", r.typ)
	}
}

// Batch answers a batch of slots; dists and errs are parallel to slots with
// "" marking success. A non-nil *Error means the server rejected the whole
// batch; a non-nil error is a transport failure.
func (c *Client) Batch(ctx context.Context, slots []BatchSlot) ([]int32, []string, *Error, error) {
	buf := getBuf()
	payload := appendBatch((*buf)[:0], slots)
	r, err := c.do(ctx, TBatch, payload)
	putBuf(buf)
	if err != nil {
		return nil, nil, nil, err
	}
	switch r.typ {
	case RBatch:
		dists, errs, perr := parseBatchResponse(r.payload)
		if perr != nil {
			return nil, nil, nil, perr
		}
		if len(dists) != len(slots) {
			return nil, nil, nil, fmt.Errorf("wire: batch response has %d slots, want %d", len(dists), len(slots))
		}
		return dists, errs, nil, nil
	case RError:
		werr, perr := parseError(r.payload)
		if perr != nil {
			return nil, nil, nil, perr
		}
		return nil, nil, werr, nil
	default:
		return nil, nil, nil, fmt.Errorf("wire: unexpected response type %#x", r.typ)
	}
}
