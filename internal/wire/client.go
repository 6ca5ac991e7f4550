package wire

import (
	"bufio"
	"context"
	"encoding/binary"
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

	ids     atomic.Uint64
	next    atomic.Uint64
	mu      sync.Mutex // guards conns slots during (re)dial, and retired
	conns   []*clientConn
	retired bool
}

// Call is one request started with Go. Once Go has registered it, its
// outcome — the response, or the transport fault that ended it, a failed
// write included — is delivered on Done exactly once; a call abandoned
// before its outcome arrived (Collector) is never delivered. Point, Batch
// and Mutate decode the outcome.
type Call struct {
	Tag   int              // the caller's label; the client never reads it
	Start time.Time        // when the request was sent
	Spans []telemetry.Span // the span section of a traced response
	Err   error            // the transport fault that ended the call
	Done  chan *Call       // receives the call once its outcome is in

	typ       byte
	payload   []byte // owned by the caller
	cc        *clientConn
	id        uint64
	timeout   time.Duration // the request timeout, or the caller's budget when shorter
	next      *Call         // a collector's list of calls in flight
	abandoned bool
}

// calls and doChans recycle do's one-call collections: point queries are
// frequent enough that a Call and a channel per request show up. An
// abandoned call is dropped instead — its connection has forgotten it, but
// the rule keeps recycling trivially safe.
var (
	calls   = sync.Pool{New: func() any { return new(Call) }}
	doChans = sync.Pool{New: func() any { return make(chan *Call, 1) }}
)

// ErrFrameTooLarge wraps a client's refusal of a request payload over
// MaxPayload. Nothing was sent, so it is no fault of the peer.
var ErrFrameTooLarge = errors.New("wire: request exceeds the frame bound")

// clientConn is one multiplexed connection.
type clientConn struct {
	c  net.Conn
	bw *bufio.Writer

	wmu   sync.Mutex   // serialises frame writes
	wpend atomic.Int64 // senders holding or waiting on wmu

	pmu      sync.Mutex
	pending  map[uint64]*Call
	dead     bool
	retiring bool // close once pending drains (Client.Retire)
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

// Retire takes the client out of service without failing anything: each
// pooled connection closes once the calls in flight on it are answered or
// abandoned. It is how a caller moves to a peer's new address while the old
// listener still serves. A request that still reaches a retired client
// rides a fresh connection that closes behind it.
func (c *Client) Retire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retired = true
	for i, cc := range c.conns {
		if cc != nil {
			cc.pmu.Lock()
			cc.retiring = true
			cc.pmu.Unlock()
			cc.take(0) // no call has id 0: this only closes an idle connection
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
		pending: make(map[uint64]*Call),
	}
	c.mu.Lock()
	if cur := c.conns[slot]; cur != nil && cur != cc && !cur.isDead() {
		// Lost a dial race; use the winner and drop ours (no reader yet).
		c.mu.Unlock()
		nc.Close()
		return cur, nil
	}
	if c.retired {
		ncc.retiring = true
	} else {
		c.conns[slot] = ncc
	}
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

// take removes the call with the given id from the calls in flight and
// returns it, nil if there is none. A retiring connection closes once no
// call is left in flight.
func (cc *clientConn) take(id uint64) *Call {
	cc.pmu.Lock()
	call := cc.pending[id]
	delete(cc.pending, id)
	drained := cc.retiring && !cc.dead && len(cc.pending) == 0
	cc.dead = cc.dead || drained
	cc.pmu.Unlock()
	if drained {
		cc.c.Close()
	}
	return call
}

// readLoop delivers response frames to their calls until the connection
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
		call := cc.take(id)
		if len(buf) > MaxPayload+frameTrailer {
			// A frame past MaxPayload came in a buffer of its own
			// (readFrame): its payload goes to its call as it is, and the
			// connection keeps no record-sized buffer.
			buf = nil
		} else if call != nil {
			// Copy out of the read buffer: the caller owns its payload.
			p := make([]byte, len(payload))
			copy(p, payload)
			payload = p
		}
		if call != nil {
			call.typ, call.payload, call.Spans = typ, payload, spans
			call.Done <- call
		}
	}
}

// fail marks the connection dead, closes it, and fails all pending calls.
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
	for _, call := range pending {
		call.Err = err
		call.Done <- call
	}
}

// send registers call and writes its request frame. It returns an error
// only when the connection was already dead, before registering anything;
// a failed write fails the connection, and with it the call, whose outcome
// then arrives on its Done channel like any other.
func (cc *clientConn) send(call *Call, typ byte, budget uint32, trace uint64, payload []byte) error {
	cc.pmu.Lock()
	if cc.dead {
		cc.pmu.Unlock()
		return fmt.Errorf("wire: connection lost")
	}
	cc.pending[call.id] = call
	cc.pmu.Unlock()

	cc.wpend.Add(1)
	cc.wmu.Lock()
	buf := getBuf()
	*buf = appendFrame((*buf)[:0], typ, call.id, budget, trace, payload)
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
	}
	return nil
}

// forget abandons a call, reporting whether it was still in flight — a
// call the read loop already took is delivered instead. Ids keep frames
// matched, so the late response of an abandoned request is simply dropped
// by the read loop and the connection stays good for every other request
// pipelined on it. Only when kill is set — the caller's deadline or the
// request timeout ran out, so the peer may be hung — is the connection
// failed, lest a hung server pin it forever.
func (cc *clientConn) forget(id uint64, kill bool, err error) bool {
	mine := cc.take(id) != nil
	if mine && kill {
		cc.fail(err)
	}
	return mine
}

// Go sends one request and returns its call; the outcome arrives on done,
// which must have room for every call started on it (net/rpc's Client.Go).
// The context's remaining deadline travels in the frame's budget field
// (rounded up to a whole millisecond) and its telemetry trace ID in the
// trace field; the spans the response carries back arrive in Call.Spans. A
// Collector, not the context, bounds the call. Go registers nothing, and
// returns an error, when the deadline has passed, no connection can be
// dialed, or the payload exceeds MaxPayload (ErrFrameTooLarge: the server
// would drop the connection, and every request pipelined on it).
func (c *Client) Go(ctx context.Context, typ byte, payload []byte, done chan *Call) (*Call, error) {
	call := &Call{Done: done}
	if err := c.start(ctx, call, typ, payload); err != nil {
		return nil, err
	}
	return call, nil
}

// start is Go on a caller-supplied call.
func (c *Client) start(ctx context.Context, call *Call, typ byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes, at most %d", ErrFrameTooLarge, len(payload), MaxPayload)
	}
	cc, err := c.conn()
	if err != nil {
		return err
	}
	var trace uint64
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		trace = tr.ID()
	}
	call.Start = time.Now()
	call.timeout = c.reqTimeout
	var budget uint32
	if dl, ok := ctx.Deadline(); ok {
		d := dl.Sub(call.Start)
		if d <= 0 {
			return context.DeadlineExceeded
		}
		if d < call.timeout {
			call.timeout = d
		}
		ms := int64((d + time.Millisecond - 1) / time.Millisecond)
		if ms > int64(^uint32(0)) {
			budget = ^uint32(0)
		} else {
			budget = uint32(ms)
		}
	}
	call.cc, call.id = cc, c.ids.Add(1)
	return cc.send(call, typ, budget, trace, payload)
}

// do sends one request and waits for its outcome: a one-call collection,
// with the call and its channel recycled. The spans a traced response
// carries back are filed into the context's trace. A caller that cancels (a
// hedge loser, a client that hung up) abandons only its own request.
func (c *Client) do(ctx context.Context, typ byte, payload []byte) *Call {
	col := NewCollector(ctx, doChans.Get().(chan *Call))
	col.start(c, calls.Get().(*Call), typ, payload)
	call := col.Next(time.Time{})
	col.Abandon()
	doChans.Put(col.C) // its one call came out: the channel is empty
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		for _, sp := range call.Spans {
			tr.AddSpan(sp)
		}
	}
	return call
}

// recycle returns a call do handed out once its outcome is decoded.
func recycle(call *Call) {
	if !call.abandoned {
		*call = Call{}
		calls.Put(call)
	}
}

// answer returns the call's response payload when the response has type
// want, else the server's in-protocol refusal or the transport fault.
func (call *Call) answer(want byte) ([]byte, *Error, error) {
	switch {
	case call.Err != nil:
		return nil, nil, call.Err
	case call.typ == want:
		return call.payload, nil, nil
	case call.typ == RError:
		werr, err := parseError(call.payload)
		return nil, werr, err
	default:
		return nil, nil, fmt.Errorf("wire: unexpected response type %#x", call.typ)
	}
}

// Point decodes a point answer. A non-nil *Error is a definitive in-protocol
// answer from the server (mirroring an HTTP status); a non-nil error is a
// transport failure the caller may retry elsewhere.
func (call *Call) Point() (int32, *Error, error) {
	p, werr, err := call.answer(RDist)
	if werr != nil || err != nil {
		return 0, werr, err
	}
	if len(p) != 4 {
		return 0, nil, fmt.Errorf("wire: bad point response length %d", len(p))
	}
	return int32(uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24), nil, nil
}

// Batch decodes the answer to a batch of n slots; dists and errs are
// parallel to the slots with "" marking success. A non-nil *Error means the
// server rejected the whole batch; a non-nil error is a transport failure.
func (call *Call) Batch(n int) ([]int32, []string, *Error, error) {
	p, werr, err := call.answer(RBatch)
	if werr != nil || err != nil {
		return nil, nil, werr, err
	}
	dists, errs, err := parseBatchResponse(p)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(dists) != n {
		return nil, nil, nil, fmt.Errorf("wire: batch response has %d slots, want %d", len(dists), n)
	}
	return dists, errs, nil, nil
}

// Mutate decodes a mutation answer: the new generation's identity plus the
// shard's rebuild ledger. A non-nil *Error is the shard's definitive
// in-protocol answer (404 graph not held there, 400 invalid batch, 500
// persist fault); a non-nil error is a transport failure.
func (call *Call) Mutate() (MutateResult, *Error, error) {
	p, werr, err := call.answer(RMutate)
	if werr != nil || err != nil {
		return MutateResult{}, werr, err
	}
	res, err := parseMutateResponse(p)
	return res, nil, err
}

// Point answers one point query; see Call.Point.
func (c *Client) Point(ctx context.Context, typ byte, q *PointQuery) (int32, *Error, error) {
	buf := getBuf()
	call := c.do(ctx, typ, AppendPoint((*buf)[:0], q))
	putBuf(buf)
	d, werr, err := call.Point()
	recycle(call)
	return d, werr, err
}

// Batch answers a batch of slots; see Call.Batch.
func (c *Client) Batch(ctx context.Context, slots []BatchSlot) ([]int32, []string, *Error, error) {
	buf := getBuf()
	call := c.do(ctx, TBatch, AppendBatch((*buf)[:0], slots))
	putBuf(buf)
	dists, errs, werr, err := call.Batch(len(slots))
	recycle(call)
	return dists, errs, werr, err
}

// Mutate applies one edge-mutation batch to the graph of the given lineage
// on a shard; see Call.Mutate.
func (c *Client) Mutate(ctx context.Context, lineage uint64, muts []MutationWire) (MutateResult, *Error, error) {
	buf := getBuf()
	call := c.do(ctx, TMutate, AppendMutate((*buf)[:0], lineage, muts))
	putBuf(buf)
	res, werr, err := call.Mutate()
	recycle(call)
	return res, werr, err
}

// FetchRecord fetches the record bytes of one structure from a peer shard
// over the persistent connection pool; a record may reach MaxRecord, the
// HTTP body bound, and is the only way records move between shards. A
// non-nil *Error is the peer's definitive in-protocol answer (404 not held,
// 413 record over MaxRecord); a non-nil error is a transport failure.
func (c *Client) FetchRecord(ctx context.Context, k *HandoffKey) ([]byte, *Error, error) {
	buf := getBuf()
	call := c.do(ctx, THandoff, appendHandoffKey((*buf)[:0], k))
	putBuf(buf)
	rec, werr, err := call.answer(RHandoff)
	recycle(call)
	return rec, werr, err
}

// FetchGraph fetches the canonical text of one graph from a peer shard —
// what a handoff receiver registers before importing the graph's structures.
// Error semantics match FetchRecord.
func (c *Client) FetchGraph(ctx context.Context, fp uint64) ([]byte, *Error, error) {
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], fp)
	call := c.do(ctx, TGraph, payload[:])
	text, werr, err := call.answer(RGraph)
	recycle(call)
	return text, werr, err
}
