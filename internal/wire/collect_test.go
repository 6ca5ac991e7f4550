package wire

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// reverseServer accepts one connection, reads n point requests and answers
// them in reverse order, each with ten times its target vertex.
func reverseServer(t *testing.T, n int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		var pre [8]byte
		if _, err := io.ReadFull(br, pre[:]); err != nil {
			return
		}
		ids := make([]uint64, n)
		vs := make([]int32, n)
		for i := range ids {
			_, id, _, _, payload, _, err := readFrame(br, nil)
			if err != nil {
				return
			}
			q, err := parsePoint(payload)
			if err != nil {
				return
			}
			ids[i], vs[i] = id, q.V
		}
		for i := n - 1; i >= 0; i-- {
			d := uint32(vs[i] * 10)
			if writeResponse(c, RDist, ids[i], nil, []byte{byte(d), byte(d >> 8), byte(d >> 16), byte(d >> 24)}) != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestGoDeliversOutOfOrderRepliesOnce starts calls with Go on one channel
// against a server that answers them in reverse: each is delivered exactly
// once, with its own answer.
func TestGoDeliversOutOfOrderRepliesOnce(t *testing.T) {
	const n = 8
	c := NewClient(reverseServer(t, n), 1)
	defer c.Close()
	done := make(chan *Call, n)
	want := make(map[*Call]int32)
	for i := 0; i < n; i++ {
		call, err := c.Go(context.Background(), TDist, AppendPoint(nil, &PointQuery{V: int32(i + 1)}), done)
		if err != nil {
			t.Fatalf("Go %d: %v", i, err)
		}
		want[call] = int32(i+1) * 10
	}
	var order []int32
	for i := 0; i < n; i++ {
		var call *Call
		select {
		case call = <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d calls delivered", i, n)
		}
		w, ok := want[call]
		if !ok {
			t.Fatalf("call delivered twice, or a call never started")
		}
		delete(want, call)
		d, werr, err := call.Point()
		if err != nil || werr != nil || d != w {
			t.Fatalf("call answered %d (%v / %v), want %d", d, werr, err, w)
		}
		order = append(order, d)
	}
	if order[0] != n*10 {
		t.Fatalf("answers arrived as %v, want the last call's first", order)
	}
	select {
	case call := <-done:
		t.Fatalf("extra delivery of %+v", call)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestGoWriteFaultDeliveredOnce fails the write of a registered call: Go
// reports no error, and the fault arrives on the channel exactly once.
func TestGoWriteFaultDeliveredOnce(t *testing.T) {
	a, b := net.Pipe()
	b.Close()
	c := NewClient("unused", 1)
	c.conns[0] = &clientConn{c: a, bw: bufio.NewWriter(a), pending: make(map[uint64]*Call)}
	done := make(chan *Call, 2)
	call, err := c.Go(context.Background(), TDist, AppendPoint(nil, &PointQuery{V: 1}), done)
	if err != nil || call == nil {
		t.Fatalf("Go = %v, %v; want the call and no error", call, err)
	}
	select {
	case got := <-done:
		if got != call || got.Err == nil || !strings.Contains(got.Err.Error(), "write failed") {
			t.Fatalf("delivered %+v, want the call with its write fault", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write fault never delivered")
	}
	select {
	case got := <-done:
		t.Fatalf("second delivery of %+v", got)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestAbandonedCallNeverDelivered abandons a call in flight on a
// one-connection client: its late answer is dropped, never delivered, and
// the next request rides the same connection.
func TestAbandonedCallNeverDelivered(t *testing.T) {
	ln := startCountingWire(t)
	c := NewClient(ln.Addr().String(), 1)
	defer c.Close()
	col := NewCollector(context.Background(), make(chan *Call, 1))
	// A == -11 answers after 60 ms.
	col.Go(c, TDist, AppendPoint(nil, &PointQuery{V: 1, A: -11}), 0)
	col.Abandon()
	if n := col.Pending(); n != 0 {
		t.Fatalf("%d calls pending after Abandon, want 0", n)
	}
	if d, werr, err := c.Point(context.Background(), TDist, &PointQuery{V: 5, A: 1, B: 1}); err != nil || werr != nil || d != 7+int32(TDist) {
		t.Fatalf("Point behind the abandoned call: %d, %v / %v", d, werr, err)
	}
	select {
	case call := <-col.C:
		t.Fatalf("abandoned call delivered: %+v", call)
	default:
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("client dialed %d connections, want 1", n)
	}
}

// TestOversizedGoRegistersNothing refuses a payload over MaxPayload before
// anything is registered or sent.
func TestOversizedGoRegistersNothing(t *testing.T) {
	ln := startCountingWire(t)
	c := NewClient(ln.Addr().String(), 1)
	defer c.Close()
	done := make(chan *Call, 1)
	call, err := c.Go(context.Background(), TBatch, make([]byte, MaxPayload+1), done)
	if call != nil || !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Go = %v, %v; want no call and ErrFrameTooLarge", call, err)
	}
	if n := ln.accepts.Load(); n != 0 {
		t.Fatalf("client dialed %d connections for a refused request, want 0", n)
	}
	select {
	case got := <-done:
		t.Fatalf("refused request delivered %+v", got)
	default:
	}
}

// TestRequestTimeoutKillsConnection times out a request the server is slow
// to answer: the call fails with the timeout, and the connection — the peer
// may be hung — is dropped, so the next request dials again.
func TestRequestTimeoutKillsConnection(t *testing.T) {
	ln := startCountingWire(t)
	c := NewClient(ln.Addr().String(), 1)
	defer c.Close()
	c.reqTimeout = 20 * time.Millisecond
	if _, _, err := c.Point(context.Background(), TDist, &PointQuery{V: 1, A: -11}); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("slow request returned %v, want a timeout", err)
	}
	if _, werr, err := c.Point(context.Background(), TDist, &PointQuery{V: 1}); err != nil || werr != nil {
		t.Fatalf("Point after the timeout: %v / %v", werr, err)
	}
	if n := ln.accepts.Load(); n != 2 {
		t.Fatalf("client dialed %d connections, want 2: the timeout must drop the connection", n)
	}
}

// TestRetireLetsInflightFinish retires a client under a request in flight on
// a slow backend: the request still answers, and then the connection closes.
func TestRetireLetsInflightFinish(t *testing.T) {
	ln := startCountingWire(t)
	c := NewClient(ln.Addr().String(), 1)
	res := make(chan error, 1)
	go func() {
		// A == -11 answers after 60 ms.
		d, werr, err := c.Point(context.Background(), TDist, &PointQuery{V: 1, A: -11})
		if err == nil && werr == nil && d != -10+int32(TDist) {
			err = errors.New("wrong answer")
		}
		if werr != nil {
			err = werr
		}
		res <- err
	}()
	var cc *clientConn
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		cc = c.conns[0]
		c.mu.Unlock()
		if cc != nil {
			cc.pmu.Lock()
			inflight := len(cc.pending)
			cc.pmu.Unlock()
			if inflight == 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("request never went in flight")
		}
	}
	c.Retire()
	if err := <-res; err != nil {
		t.Fatalf("request in flight across Retire: %v", err)
	}
	for deadline := time.Now().Add(2 * time.Second); !cc.isDead(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("retired connection still open after its last call answered")
		}
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("client dialed %d connections, want 1", n)
	}
}
