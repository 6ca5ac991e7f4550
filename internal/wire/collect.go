package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Collector gathers the calls started on one channel and settles them on
// the caller's goroutine — the one wait loop behind every request. A
// blocking Client method is a one-call collection; a fan-out (hedged
// attempts, scattered sub-batches, a mutation sent to every shard) starts
// its calls back to back and takes each outcome as it arrives, with no
// goroutine per call. The collector owns what ends a call early: its
// request timeout, or a spent deadline, fails it and kills its connection
// (the peer may be hung); a cancelled context, or Abandon, only abandons it
// and leaves the connection to the other requests pipelined on it.
type Collector struct {
	// C receives the outcome of every call started on the collector; it
	// must have room for all of them.
	C chan *Call

	ctx     context.Context
	done    <-chan struct{} // ctx.Done() until the context's end was handled
	live    *Call           // calls sent on a connection, linked by next; some may be answered
	pending int             // calls started whose outcome Next has not returned
	timer   *time.Timer
	armed   time.Time // when timer fires; zero when it is idle
}

// NewCollector returns a collector for calls bounded by ctx whose outcomes
// arrive on c.
func NewCollector(ctx context.Context, c chan *Call) Collector {
	return Collector{C: c, ctx: ctx, done: ctx.Done()}
}

// Pending returns how many started calls Next has not returned yet.
func (col *Collector) Pending() int { return col.pending }

// Go starts a request on c labelled tag (see Client.Go). Its outcome comes
// out of Next, a refusal to send included.
func (col *Collector) Go(c *Client, typ byte, payload []byte, tag int) {
	col.start(c, &Call{Tag: tag}, typ, payload)
}

// start is Go on a caller-supplied call; a context that already ended
// fails it unsent.
func (col *Collector) start(c *Client, call *Call, typ byte, payload []byte) {
	call.Done = col.C
	col.pending++
	err := col.ctx.Err()
	if err == nil {
		err = c.start(col.ctx, call, typ, payload)
	}
	if err != nil {
		call.Err = err
		col.C <- call
		return
	}
	call.next, col.live = col.live, call
}

// Fail adds a call, labelled tag, that failed with err before it could
// start; it comes out of Next like any other.
func (col *Collector) Fail(tag int, err error) {
	col.pending++
	col.C <- &Call{Tag: tag, Err: err, Done: col.C}
}

// Next returns the next call whose outcome is in: a response, a transport
// fault, or the request timeout or context end that cut it short. It
// returns nil when the alarm time passes first (the zero time sets none),
// and when no call is pending.
func (col *Collector) Next(alarm time.Time) *Call {
	for col.pending > 0 {
		var fired <-chan time.Time
		if at := col.wake(alarm); !at.IsZero() {
			if col.timer == nil {
				col.timer = timerPool.Get().(*time.Timer)
			}
			if at != col.armed {
				col.timer.Reset(time.Until(at))
				col.armed = at
			}
			fired = col.timer.C
		}
		select {
		case call := <-col.C:
			col.pending--
			return call
		case <-col.done:
			col.done = nil
			err := col.ctx.Err()
			col.cut(time.Time{}, !errors.Is(err, context.Canceled), err)
		case <-fired:
			now := time.Now()
			col.armed = time.Time{}
			col.cut(now, true, nil)
			if !alarm.IsZero() && !now.Before(alarm) {
				return nil
			}
		}
	}
	return nil
}

// wake returns when Next must wake up without an outcome: the alarm or the
// earliest request timeout of a call sent, zero for never. A call already
// answered costs at most a spurious wake-up.
func (col *Collector) wake(alarm time.Time) time.Time {
	at := alarm
	for call := col.live; call != nil; call = call.next {
		if exp := call.Start.Add(call.timeout); at.IsZero() || exp.Before(at) {
			at = exp
		}
	}
	return at
}

// cut ends calls early. With a zero now it ends all of them with err (the
// context ended); otherwise those whose request timeout passed by now, with
// a timeout error. Each call still in flight is abandoned on its
// connection, which is failed when kill is set, and its outcome is
// delivered here; a call the connection already answered keeps that answer.
func (col *Collector) cut(now time.Time, kill bool, err error) {
	for p := &col.live; *p != nil; {
		call := *p
		if !now.IsZero() && now.Before(call.Start.Add(call.timeout)) {
			p = &call.next
			continue
		}
		*p = call.next
		cerr := err
		if cerr == nil {
			cerr = fmt.Errorf("wire: request timed out after %v", call.timeout)
		}
		if call.cc.forget(call.id, kill, cerr) {
			call.Err, call.abandoned = cerr, true
			col.C <- call
		}
	}
}

// Abandon gives up on every call still in flight — each is forgotten on its
// connection, which stays up for the other requests on it, and is never
// delivered — and releases the collector's timer. Outcomes already in C
// stay there. Call it once the collection is over.
func (col *Collector) Abandon() {
	for call := col.live; call != nil; call = call.next {
		if call.cc.forget(call.id, false, nil) {
			call.abandoned = true
			col.pending--
		}
	}
	col.live = nil
	if col.timer != nil {
		col.timer.Stop()
		timerPool.Put(col.timer)
		col.timer, col.armed = nil, time.Time{}
	}
}

// timerPool recycles collector timers; Reset after a receive or Stop is
// safe with Go 1.23+ timer semantics.
var timerPool = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}
