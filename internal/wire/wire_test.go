package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftbfs/internal/telemetry"
)

// testBackend answers arithmetically so tests can verify routing without a
// real store: point answers V + A + B + int32(typ), batches echo per-slot,
// mutations echo the lineage and count, and A == -7 triggers an in-protocol
// error. A batch slot with A == -13 errors with a message as long as a
// whole frame. A record is testBytes(Source) and a graph text
// testBytes(fp), so a test picks their sizes by the key it asks for.
type testBackend struct{}

func (testBackend) HandoffRecord(ctx context.Context, k *HandoffKey) ([]byte, *Error) {
	if k.Source < 0 {
		return nil, &Error{Code: 404, Msg: "not held"}
	}
	return testBytes(int(k.Source)), nil
}

func (testBackend) HandoffGraph(ctx context.Context, fp uint64) ([]byte, *Error) {
	return testBytes(int(fp)), nil
}

// testBytes returns n bytes of a pattern whose period, 4093, divides no
// power of two, so a copy that drops, repeats or moves a chunk of a
// doubling buffer does not compare equal.
func testBytes(n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n && i < 4093; i++ {
		b[i] = byte(i*131 ^ i>>3)
	}
	for filled := min(n, 4093); filled < n; filled *= 2 {
		copy(b[filled:], b[:filled])
	}
	return b
}

func (testBackend) WirePoint(ctx context.Context, typ byte, q *PointQuery) (int32, *Error) {
	if q.A == -7 {
		return 0, &Error{Code: 404, Msg: "unknown graph 00000000000000ff"}
	}
	if q.A == -9 {
		// Busy-server stand-in: wait out the caller's budget, then prove the
		// budget arrived by answering with its expiry instead of a distance.
		select {
		case <-ctx.Done():
			return 0, &Error{Code: 504, Msg: "deadline budget exhausted"}
		case <-time.After(2 * time.Second):
			return 0, &Error{Code: 500, Msg: "no budget arrived"}
		}
	}
	if q.A == -11 {
		// Slow-but-finite stand-in: the connection's next frame waits behind it.
		time.Sleep(60 * time.Millisecond)
	}
	return q.V + q.A + q.B + int32(typ), nil
}

func (testBackend) WireMutate(ctx context.Context, lineage uint64, muts []MutationWire) (MutateResult, *Error) {
	if lineage == 0 {
		return MutateResult{}, &Error{Code: 404, Msg: "unknown graph 0000000000000000"}
	}
	return MutateResult{Lineage: lineage, Gen: uint64(len(muts))}, nil
}

func (testBackend) WireBatch(ctx context.Context, slots []BatchSlot) ([]int32, []string) {
	dists := make([]int32, len(slots))
	errs := make([]string, len(slots))
	for i, s := range slots {
		if s.A == -7 {
			dists[i] = -1
			errs[i] = fmt.Sprintf("slot %d failed", i)
			continue
		}
		if s.A == -13 {
			dists[i] = -1
			errs[i] = strings.Repeat("e", MaxPayload)
			continue
		}
		dists[i] = s.V * 2
		if s.Vertex {
			dists[i]++
		}
	}
	return dists, errs
}

// startWire serves testBackend on a loopback listener.
func startWire(t *testing.T) (addr string, shutdown func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, ln, testBackend{})
	}()
	return ln.Addr().String(), func() {
		cancel()
		<-done
	}
}

func TestPointRoundTrip(t *testing.T) {
	addr, shutdown := startWire(t)
	defer shutdown()
	c := NewClient(addr, 2)
	defer c.Close()

	d, werr, err := c.Point(context.Background(), TDistAvoiding, &PointQuery{V: 10, A: 2, B: 3})
	if err != nil || werr != nil {
		t.Fatalf("Point: %v / %v", werr, err)
	}
	if want := int32(10 + 2 + 3 + int32(TDistAvoiding)); d != want {
		t.Fatalf("Point = %d, want %d", d, want)
	}

	// In-protocol errors carry their HTTP-equivalent status through.
	_, werr, err = c.Point(context.Background(), TDist, &PointQuery{V: 1, A: -7})
	if err != nil {
		t.Fatalf("Point transport error: %v", err)
	}
	if werr == nil || werr.Code != 404 {
		t.Fatalf("Point error = %v, want status 404", werr)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	addr, shutdown := startWire(t)
	defer shutdown()
	c := NewClient(addr, 1)
	defer c.Close()

	slots := []BatchSlot{
		{PointQuery: PointQuery{V: 5}},
		{PointQuery: PointQuery{V: 6, A: -7}},
		{PointQuery: PointQuery{V: 7}, Vertex: true},
	}
	dists, errs, werr, err := c.Batch(context.Background(), slots)
	if err != nil || werr != nil {
		t.Fatalf("Batch: %v / %v", werr, err)
	}
	if dists[0] != 10 || dists[2] != 15 {
		t.Fatalf("Batch dists = %v", dists)
	}
	if errs[0] != "" || errs[1] != "slot 1 failed" || errs[2] != "" {
		t.Fatalf("Batch errs = %q", errs)
	}
}

// TestPipelinedConcurrency hammers one client (few conns, many goroutines)
// to exercise id multiplexing; run with -race.
func TestPipelinedConcurrency(t *testing.T) {
	addr, shutdown := startWire(t)
	defer shutdown()
	c := NewClient(addr, 2)
	defer c.Close()

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := int32(w*1000 + i)
				d, werr, err := c.Point(context.Background(), TDist, &PointQuery{V: v, A: 1, B: 1})
				if err != nil || werr != nil {
					t.Errorf("Point: %v / %v", werr, err)
					return
				}
				if want := v + 2 + int32(TDist); d != want {
					t.Errorf("Point = %d, want %d", d, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestClientSurvivesServerRestart kills the server mid-stream and expects
// transport errors (not hangs), then a full recovery once a new server
// listens on the same address.
func TestClientSurvivesServerRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan struct{})
	go func() { defer close(done1); Serve(ctx1, ln, testBackend{}) }()

	c := NewClient(addr, 1)
	defer c.Close()
	if _, _, err := c.Point(context.Background(), TDist, &PointQuery{V: 1}); err != nil {
		t.Fatalf("warm-up point: %v", err)
	}

	cancel1()
	<-done1
	// The dead connection surfaces as a transport error (possibly after one
	// failed redial); it must not hang.
	cctx, ccancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer ccancel()
	if _, _, err := c.Point(cctx, TDist, &PointQuery{V: 1}); err == nil {
		t.Fatalf("point against dead server succeeded")
	}

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() { defer close(done2); Serve(ctx2, ln2, testBackend{}) }()
	defer func() { cancel2(); <-done2 }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := c.Point(context.Background(), TDist, &PointQuery{V: 2}); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered after server restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerRejectsGarbage sends a non-preamble byte stream (an HTTP request,
// say) and expects the server to just hang up.
func TestServerRejectsGarbage(t *testing.T) {
	addr, shutdown := startWire(t)
	defer shutdown()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	fmt.Fprintf(nc, "GET /dist HTTP/1.1\r\nHost: x\r\n\r\n")
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	var b [1]byte
	if _, err := nc.Read(b[:]); err == nil {
		t.Fatalf("server answered a non-wire client")
	}
}

// FuzzWireFrame feeds arbitrary bytes to the frame reader and every payload
// parser; nothing may panic or over-allocate, and whatever parses must
// re-encode cleanly.
func FuzzWireFrame(f *testing.F) {
	var seed []byte
	seed = appendFrame(seed, TDistAvoiding, 7, 0, 0, AppendPoint(nil, &PointQuery{FP: 1, V: 2, A: 3, B: 4}))
	f.Add(seed)
	f.Add(appendFrame(nil, TBatch, 9, 250, 0, AppendBatch(nil, []BatchSlot{{PointQuery: PointQuery{V: 1}, Vertex: true}})))
	f.Add(appendFrame(nil, RError, 1, 0, 7, appendError(nil, 404, "nope")))
	f.Add(appendFrame(nil, RBatch, 2, 0, 0, appendBatchResponse(nil, []int32{1, -1}, []string{"", "bad"})))
	f.Add(appendFrame(nil, RDist, 3, 0, 5, append(appendSpans(nil, []telemetry.Span{{Name: "shard.wire", StartUs: 1, DurUs: 2}}), 7, 0, 0, 0)))
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, _, _, trace, payload, _, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if trace != 0 && typ&0x80 != 0 {
			// A traced response: the span section must parse canonically
			// or be refused, never panic.
			spans, body, err := parseSpans(payload)
			if err != nil {
				return
			}
			if got := append(appendSpans(nil, spans), body...); !bytes.Equal(got, payload) {
				t.Fatalf("span section not canonical")
			}
			payload = body
		}
		switch typ {
		case TDist, TDistAvoiding, TDistAvoidingVertex:
			if q, err := parsePoint(payload); err == nil {
				if got := AppendPoint(nil, &q); !bytes.Equal(got, payload) {
					t.Fatalf("point payload not canonical")
				}
			}
		case TBatch:
			if slots, err := parseBatch(payload); err == nil {
				if got := AppendBatch(nil, slots); !bytes.Equal(got, payload) {
					t.Fatalf("batch payload not canonical")
				}
			}
		case RError:
			if e, err := parseError(payload); err == nil {
				if got := appendError(nil, e.Code, e.Msg); !bytes.Equal(got, payload) {
					t.Fatalf("error payload not canonical")
				}
			}
		case RBatch:
			// Batch responses have a sparse error section; parse only.
			parseBatchResponse(payload)
		}
	})
}

// TestFrameTraceRoundTrip proves the v3 trace field survives encode/decode.
func TestFrameTraceRoundTrip(t *testing.T) {
	const want = uint64(0xabcdef0123456789)
	frame := appendFrame(nil, TDist, 3, 17, want, AppendPoint(nil, &PointQuery{V: 1, A: -1, B: -1}))
	typ, id, budget, trace, _, _, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if typ != TDist || id != 3 || budget != 17 || trace != want {
		t.Fatalf("frame fields = %x/%d/%d/%x, want %x/3/17/%x", typ, id, budget, trace, TDist, want)
	}
}

// traceBackend records the trace ID each point request's context carried;
// its handoff methods are testBackend's.
type traceBackend struct {
	testBackend
	mu   sync.Mutex
	seen []uint64
}

func (b *traceBackend) WirePoint(ctx context.Context, typ byte, q *PointQuery) (int32, *Error) {
	var id uint64
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		id = tr.ID()
		tr.AddSpan(telemetry.Span{Name: "backend.point", StartUs: 3, DurUs: 5})
	}
	b.mu.Lock()
	b.seen = append(b.seen, id)
	b.mu.Unlock()
	return q.V, nil
}

func (b *traceBackend) WireBatch(ctx context.Context, slots []BatchSlot) ([]int32, []string) {
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		tr.Add("backend.batch", time.Now())
	}
	return make([]int32, len(slots)), make([]string, len(slots))
}

func (b *traceBackend) WireMutate(ctx context.Context, lineage uint64, muts []MutationWire) (MutateResult, *Error) {
	return MutateResult{Lineage: lineage}, nil
}

// TestClientPropagatesTraceID proves a telemetry trace in the caller's
// context reaches the backend through the frame's trace field — and that
// untraced requests arrive with a zero ID. The backend's spans ride the
// response back into the caller's trace.
func TestClientPropagatesTraceID(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	backend := &traceBackend{}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); Serve(ctx, ln, backend) }()
	defer func() { cancel(); <-done }()

	c := NewClient(ln.Addr().String(), 1)
	defer c.Close()

	tr := telemetry.NewTrace(0x1234)
	tctx := telemetry.WithTrace(context.Background(), tr)
	if _, werr, err := c.Point(tctx, TDist, &PointQuery{V: 5, A: -1, B: -1}); err != nil || werr != nil {
		t.Fatalf("traced Point: %v / %v", werr, err)
	}
	if _, werr, err := c.Point(context.Background(), TDist, &PointQuery{V: 6, A: -1, B: -1}); err != nil || werr != nil {
		t.Fatalf("untraced Point: %v / %v", werr, err)
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if len(backend.seen) != 2 || backend.seen[0] != 0x1234 || backend.seen[1] != 0 {
		t.Fatalf("backend saw trace IDs %x, want [1234 0]", backend.seen)
	}
	if got := tr.Spans(); len(got) != 1 || got[0] != (telemetry.Span{Name: "backend.point", StartUs: 3, DurUs: 5}) {
		t.Fatalf("caller's trace holds %+v, want the backend's span from the response", got)
	}
	// Batches and mutations carry spans back the same way.
	btr := telemetry.NewTrace(0x5678)
	if _, _, werr, err := c.Batch(telemetry.WithTrace(context.Background(), btr), []BatchSlot{{}}); err != nil || werr != nil {
		t.Fatalf("traced Batch: %v / %v", werr, err)
	}
	if got := btr.Spans(); len(got) != 1 || got[0].Name != "backend.batch" {
		t.Fatalf("batch trace holds %+v, want backend.batch", got)
	}
}

// TestUntracedResponseFramesByteIdentical pins untraced response frames to
// the bytes protocol version 3 produced: only traced responses changed shape
// in version 4.
func TestUntracedResponseFramesByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  byte
		id   uint64
		body []byte
		want string
	}{
		{"RDist", RDist, 42, []byte{7, 0, 0, 0},
			"1d000000812a00000000000000000000000000000000000000070000003f1948c8"},
		{"RBatch", RBatch, 43, appendBatchResponse(nil, []int32{3, -1, 5}, []string{"", "bad slot", ""}),
			"3d000000842b000000000000000000000000000000000000000300000003000000ffffffff0500000001000000010000000800000062616420736c6f749215133e"},
		{"RError", RError, 44, appendError(nil, 404, "unknown graph"),
			"2e000000ff2c00000000000000000000000000000000000000940100000d000000756e6b6e6f776e2067726170681d367ba0"},
	} {
		var got bytes.Buffer
		if err := writeResponse(&got, tc.typ, tc.id, nil, tc.body); err != nil {
			t.Fatal(err)
		}
		if h := fmt.Sprintf("%x", got.Bytes()); h != tc.want {
			t.Errorf("untraced %s frame = %s, want %s", tc.name, h, tc.want)
		}
	}
}

// countingListener counts accepted connections, i.e. client dials.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// startCountingWire serves testBackend on a counting loopback listener until
// the test ends.
func startCountingWire(t *testing.T) *countingListener {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: raw}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); Serve(ctx, ln, testBackend{}) }()
	t.Cleanup(func() { cancel(); <-done })
	return ln
}

// TestCancelledRequestKeepsConnection cancels one of two requests pipelined
// on a one-connection client: the other must still answer, over the same
// connection. A cancelled waiter (a hedge loser, a caller that hung up)
// abandons only its own request.
func TestCancelledRequestKeepsConnection(t *testing.T) {
	ln := startCountingWire(t)
	c := NewClient(ln.Addr().String(), 1)
	defer c.Close()
	loserCtx, loserCancel := context.WithCancel(context.Background())
	loser := make(chan error, 1)
	go func() {
		// A == -11 answers after 60 ms; the caller gives up after 10 ms.
		_, _, err := c.Point(loserCtx, TDist, &PointQuery{V: 1, A: -11})
		loser <- err
	}()
	time.AfterFunc(10*time.Millisecond, loserCancel)
	time.Sleep(2 * time.Millisecond) // the loser's frame goes first

	wctx, wcancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer wcancel()
	d, werr, err := c.Point(wctx, TDist, &PointQuery{V: 5, A: 1, B: 1})
	if err != nil || werr != nil {
		t.Fatalf("request pipelined behind a cancelled one failed: %v / %v", werr, err)
	}
	if want := int32(5 + 2 + int32(TDist)); d != want {
		t.Fatalf("Point = %d, want %d", d, want)
	}
	if err := <-loser; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request returned %v, want context.Canceled", err)
	}
	if _, werr, err := c.Point(context.Background(), TDist, &PointQuery{V: 1}); err != nil || werr != nil {
		t.Fatalf("follow-up Point: %v / %v", werr, err)
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("client dialed %d connections, want 1: the cancel killed the pooled connection", n)
	}
}

// TestOversizedBatchKeepsConnection sends a batch whose frame would exceed
// MaxPayload between two points on a one-connection client. The client
// refuses it without touching the connection, which the server would
// otherwise drop together with every request pipelined on it.
func TestOversizedBatchKeepsConnection(t *testing.T) {
	ln := startCountingWire(t)
	c := NewClient(ln.Addr().String(), 1)
	defer c.Close()
	ctx := context.Background()
	if _, werr, err := c.Point(ctx, TDist, &PointQuery{V: 1}); err != nil || werr != nil {
		t.Fatalf("Point: %v / %v", werr, err)
	}
	slots := make([]BatchSlot, MaxPayload/slotLen+1)
	if _, _, werr, err := c.Batch(ctx, slots); !errors.Is(err, ErrFrameTooLarge) || werr != nil {
		t.Fatalf("oversized Batch: %v / %v, want ErrFrameTooLarge", werr, err)
	}
	if _, werr, err := c.Point(ctx, TDist, &PointQuery{V: 1}); err != nil || werr != nil {
		t.Fatalf("Point after the refused batch: %v / %v", werr, err)
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("client dialed %d connections, want 1: the oversized batch killed the pooled connection", n)
	}
}

// TestOversizedResponseKeepsConnection has the backend answer a batch whose
// response would exceed MaxPayload, and a record over MaxRecord: the server
// answers an in-protocol 413 instead of a frame the client would drop the
// connection over.
func TestOversizedResponseKeepsConnection(t *testing.T) {
	for _, tc := range []struct {
		name string
		ask  func(ctx context.Context, c *Client) (*Error, error)
	}{
		{"batch", func(ctx context.Context, c *Client) (*Error, error) {
			_, _, werr, err := c.Batch(ctx, []BatchSlot{{PointQuery: PointQuery{V: 1}}, {PointQuery: PointQuery{V: 2, A: -13}}})
			return werr, err
		}},
		{"record", func(ctx context.Context, c *Client) (*Error, error) {
			_, werr, err := c.FetchRecord(ctx, &HandoffKey{Source: MaxRecord + 1})
			return werr, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln := startCountingWire(t)
			c := NewClient(ln.Addr().String(), 1)
			defer c.Close()
			ctx := context.Background()
			werr, err := tc.ask(ctx, c)
			if err != nil || werr == nil || werr.Code != 413 {
				t.Fatalf("%s with an oversized answer: %v / %v, want an in-protocol 413", tc.name, werr, err)
			}
			if d, werr, err := c.Point(ctx, TDist, &PointQuery{V: 1}); err != nil || werr != nil || d != 1+int32(TDist) {
				t.Fatalf("Point after the 413: %d, %v / %v", d, werr, err)
			}
			if n := ln.accepts.Load(); n != 1 {
				t.Fatalf("client dialed %d connections, want 1: the oversized response killed the pooled connection", n)
			}
		})
	}
}

// TestRecordsPastMaxPayloadCrossTheWire fetches a 9 MB record and a 9 MB
// graph text, both past MaxPayload and under MaxRecord, over one
// connection: they arrive intact, and the connection keeps serving.
func TestRecordsPastMaxPayloadCrossTheWire(t *testing.T) {
	ln := startCountingWire(t)
	c := NewClient(ln.Addr().String(), 1)
	defer c.Close()
	ctx := context.Background()
	const size = 9 << 20
	want := testBytes(size)
	rec, werr, err := c.FetchRecord(ctx, &HandoffKey{Source: size})
	if err != nil || werr != nil {
		t.Fatalf("FetchRecord of %d bytes: %v / %v", size, werr, err)
	}
	if !bytes.Equal(rec, want) {
		t.Fatalf("the record arrived as %d bytes that differ from the %d sent", len(rec), size)
	}
	text, werr, err := c.FetchGraph(ctx, size)
	if err != nil || werr != nil {
		t.Fatalf("FetchGraph of %d bytes: %v / %v", size, werr, err)
	}
	if !bytes.Equal(text, want) {
		t.Fatalf("the graph text arrived as %d bytes that differ from the %d sent", len(text), size)
	}
	if d, werr, err := c.Point(ctx, TDist, &PointQuery{V: 1}); err != nil || werr != nil || d != 1+int32(TDist) {
		t.Fatalf("Point after the transfers: %d, %v / %v", d, werr, err)
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("client dialed %d connections, want 1", n)
	}
}

// TestRecordFrameBufferedAsItArrives gives readFrame a header announcing a
// MaxRecord-byte record over a short body: it fails on the short read
// having allocated one chunk, not the announced length. A query frame
// announcing more than MaxPayload is still refused on its header alone.
func TestRecordFrameBufferedAsItArrives(t *testing.T) {
	frame := func(typ byte, payload int) []byte {
		b := appendFrame(nil, typ, 1, 0, 0, nil)[:4+frameOverhead]
		binary.LittleEndian.PutUint32(b, uint32(frameOverhead+payload+frameTrailer))
		return append(b, make([]byte, 100)...)
	}
	data := frame(RHandoff, MaxRecord)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, _, _, _, err := readFrame(bytes.NewReader(data), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("readFrame of a short record frame: %v, want a short read", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*largeChunk {
		t.Fatalf("readFrame allocated %d bytes for a %d-byte body announcing %d", got, 100, MaxRecord)
	}
	for _, typ := range []byte{TBatch, RBatch, RError} {
		_, _, _, _, _, _, err := readFrame(bytes.NewReader(frame(typ, MaxPayload+1)), nil)
		if err == nil || !strings.Contains(err.Error(), "bad frame length") {
			t.Fatalf("frame type %#x announcing MaxPayload+1: %v, want bad frame length", typ, err)
		}
	}
}

// TestFramePoolKeepsNoRecordBuffer returns a buffer grown past MaxPayload
// to the frame pool, which must not keep it for the point path to draw.
// The pool may already hold buffers, so several are drawn.
func TestFramePoolKeepsNoRecordBuffer(t *testing.T) {
	big := make([]byte, 0, MaxPayload+1)
	putBuf(&big)
	for i := 0; i < 8; i++ {
		if b := getBuf(); cap(*b) > MaxPayload {
			t.Fatalf("the frame pool handed out a %d-byte buffer", cap(*b))
		}
	}
}
