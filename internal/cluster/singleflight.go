package cluster

import (
	"net/http"
	"sync"

	"ftbfs/internal/wire"
)

// flightGroup deduplicates concurrent identical work: the first caller of a
// key runs fn, everyone else arriving while it is in flight waits and
// shares the typed result — an answer, or the refusal every waiter relays.
// Unlike a cache, results are not retained — the next call after
// completion runs fn again (a rebuilt /build is legitimate; a doubled
// fan-out of the same one is not).
type flightGroup[T any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[T]
}

type flightCall[T any] struct {
	done chan struct{}
	val  T
	err  *wire.Error
}

// errFlightFailed is what the waiters of a flight that died without a
// result (a panic in the fan-out) relay.
var errFlightFailed = &wire.Error{Code: http.StatusBadGateway, Msg: "cluster: fan-out failed"}

// Do runs fn under key, coalescing concurrent duplicates. shared reports
// whether this caller piggybacked on another's flight.
func (g *flightGroup[T]) Do(key string, fn func() (T, *wire.Error)) (val T, err *wire.Error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall[T])
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall[T]{done: make(chan struct{}), err: errFlightFailed}
	g.calls[key] = c
	g.mu.Unlock()

	// The flight must be torn down even if fn panics (net/http recovers
	// handler panics, so the process would live on with a dead flight that
	// hangs every waiter and every future call of this key forever).
	// Waiters then relay errFlightFailed.
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}
