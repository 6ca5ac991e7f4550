package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"ftbfs/internal/server"
	"ftbfs/internal/wire"
)

// Member is one shard node known to the router. Health is maintained by
// probes (and by request outcomes observed in passing); the ring position
// depends only on the ID, so an address change on rejoin does not remap any
// keys.
type Member struct {
	ID string

	addr atomic.Pointer[string] // base URL; updated on rejoin while requests read it

	// Two independent health signals, each with its own strike counter:
	// probeDown is owned by the /readyz probes (a draining shard answers
	// probes with 503 while still serving its in-flight traffic, so
	// request successes must not override it), reqDown by request-path
	// outcomes (transport faults, 5xx) so a dead or broken shard drops to
	// the back of the attempt order between probes — and recovers from a
	// last-resort success even when probing is disabled entirely.
	probeDown     atomic.Bool
	probeFailures atomic.Int64
	reqDown       atomic.Bool
	reqFailures   atomic.Int64
	probes        atomic.Uint64

	// wireAddr is the shard's binary-protocol address, learned from its
	// /readyz responses (or set at join); empty means not yet known, and an
	// attempt on the member then fails like one on a dead listener. wireC is
	// the lazily-dialed pooled client for that address; wireMu guards both
	// against change.
	wireAddr atomic.Pointer[string]
	wireMu   sync.Mutex
	wireC    *wire.Client

	// cb is the member's circuit breaker (breaker.go): health marks reorder
	// attempts, the breaker stops spending them on a replica that keeps
	// failing. Fed by the same markRequest/markProbe observations.
	cb *breaker
}

// Addr returns the member's current base URL, e.g. "http://127.0.0.1:7001".
func (m *Member) Addr() string { return *m.addr.Load() }

func (m *Member) setAddr(a string) { m.addr.Store(&a) }

// WireAddr returns the member's known binary-protocol address, "" when the
// shard has not advertised one.
func (m *Member) WireAddr() string {
	if p := m.wireAddr.Load(); p != nil {
		return *p
	}
	return ""
}

// SetWireAddr records the shard's binary-protocol address ("" to clear it —
// a restarted shard may come back without a wire listener). Changing the
// address retires the old pooled client: requests in flight on it finish
// (the old listener may still serve them) and the next request dials fresh.
func (m *Member) SetWireAddr(addr string) {
	m.wireMu.Lock()
	defer m.wireMu.Unlock()
	if m.WireAddr() == addr {
		return
	}
	m.wireAddr.Store(&addr)
	if m.wireC != nil {
		m.wireC.Retire()
		m.wireC = nil
	}
}

// wireClient returns the pooled binary-protocol client for the member, nil
// when no wire address is known. The client survives shard restarts on the
// same address (dead connections re-dial lazily).
func (m *Member) wireClient() *wire.Client {
	m.wireMu.Lock()
	defer m.wireMu.Unlock()
	if addr := m.WireAddr(); m.wireC == nil && addr != "" {
		m.wireC = wire.NewClient(addr, 0)
	}
	return m.wireC
}

// normalizeWireAddr resolves an advertised wire address against the member's
// HTTP URL: a listener bound to the unspecified address advertises
// "[::]:port" or "0.0.0.0:port", which only the shard itself can dial — the
// router must reach it on the host it already reaches over HTTP.
func normalizeWireAddr(wireAddr, httpURL string) string {
	if wireAddr == "" {
		return ""
	}
	host, port, err := net.SplitHostPort(wireAddr)
	if err != nil {
		return wireAddr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		if u, err := url.Parse(httpURL); err == nil && u.Hostname() != "" {
			return net.JoinHostPort(u.Hostname(), port)
		}
	}
	return wireAddr
}

// Healthy reports whether the member is routable: neither demoted by
// probes (not ready / unreachable) nor by request outcomes. New members
// start healthy (optimistically routable) until an observation says
// otherwise.
func (m *Member) Healthy() bool { return !m.probeDown.Load() && !m.reqDown.Load() }

func (m *Member) resetHealth() {
	m.probeDown.Store(false)
	m.probeFailures.Store(0)
	m.reqDown.Store(false)
	m.reqFailures.Store(0)
	// A rejoin is a fresh start for the breaker too — the restarted process
	// shares nothing with whatever tripped it.
	m.cb.onResult(true)
}

// mark folds one observation into a (down, counter) pair: recovery is
// immediate on success, marking down waits for `threshold` consecutive
// failures so one dropped packet does not eject a replica.
func mark(down *atomic.Bool, failures *atomic.Int64, ok bool, threshold int64) {
	if ok {
		failures.Store(0)
		down.Store(false)
		return
	}
	if failures.Add(1) >= threshold {
		down.Store(true)
	}
}

// markProbe records one /readyz probe outcome. A success while the breaker
// is open arms its half-open token early — probe-driven recovery.
func (m *Member) markProbe(ok bool, threshold int64) {
	mark(&m.probeDown, &m.probeFailures, ok, threshold)
	m.cb.onProbe(ok)
}

// markRequest records one proxied-request outcome, feeding both the health
// strike counter and the circuit breaker.
func (m *Member) markRequest(ok bool, threshold int64) {
	mark(&m.reqDown, &m.reqFailures, ok, threshold)
	m.cb.onResult(ok)
}

// Breaker state accessors for routing and stats (nil-safe for Members
// constructed outside Join, e.g. in tests).

func (m *Member) breakerAllow() bool                { return m.cb.Allow() }
func (m *Member) breakerOpen() bool                 { return m.cb.isOpen() }
func (m *Member) breakerSnapshot() (string, uint64) { return m.cb.snapshot() }

// Membership is the mutable shard set behind a router: members keyed by ID
// plus the current ring built from exactly those IDs. Join/Leave rebuild
// the ring; because the ring is a pure function of the sorted ID set, every
// router observing the same membership routes identically.
type Membership struct {
	replicas int
	vnodes   int

	// Breaker geometry stamped onto members as they join; NewRouter
	// overrides the defaults from its options before traffic flows.
	brThreshold int
	brCooldown  time.Duration

	mu      sync.RWMutex
	members map[string]*Member
	ring    *Ring
}

// NewMembership returns an empty membership with the given replication
// factor (minimum 1) and vnodes per member (DefaultVnodes when ≤ 0).
func NewMembership(replicas, vnodes int) *Membership {
	if replicas < 1 {
		replicas = 1
	}
	return &Membership{
		replicas:    replicas,
		vnodes:      vnodes,
		brThreshold: DefaultBreakerThreshold,
		brCooldown:  DefaultBreakerCooldown,
		members:     make(map[string]*Member),
		ring:        NewRing(nil, vnodes),
	}
}

// SetBreakerConfig retunes the breaker geometry for members joining from now
// on and resets existing members' breakers to the new shape. Zero values
// keep the defaults.
func (ms *Membership) SetBreakerConfig(threshold int, cooldown time.Duration) {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.brThreshold, ms.brCooldown = threshold, cooldown
	for _, m := range ms.members {
		m.cb = newBreaker(threshold, cooldown)
	}
}

// Replicas returns the replication factor.
func (ms *Membership) Replicas() int { return ms.replicas }

// Join adds a shard (or updates the address of a known ID — a rejoin). Only
// an ID-set change rebuilds the ring, so a shard coming back under a new
// port keeps all its key ranges.
func (ms *Membership) Join(id, addr string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if m, ok := ms.members[id]; ok {
		m.setAddr(addr)
		m.resetHealth()
		return
	}
	m := &Member{ID: id, cb: newBreaker(ms.brThreshold, ms.brCooldown)}
	m.setAddr(addr)
	ms.members[id] = m
	ms.rebuildLocked()
}

// Leave removes a shard from the membership, remapping only the key ranges
// it owned (consistent hashing's minimal-disruption property).
func (ms *Membership) Leave(id string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if _, ok := ms.members[id]; !ok {
		return
	}
	delete(ms.members, id)
	ms.rebuildLocked()
}

func (ms *Membership) rebuildLocked() {
	ids := make([]string, 0, len(ms.members))
	for id := range ms.members {
		ids = append(ids, id)
	}
	ms.ring = NewRing(ids, ms.vnodes)
}

// Members returns a snapshot of all members in ring (sorted-ID) order.
func (ms *Membership) Members() []*Member {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	out := make([]*Member, 0, len(ms.members))
	for _, id := range ms.ring.Nodes() {
		out = append(out, ms.members[id])
	}
	return out
}

// Member returns the member with the given ID.
func (ms *Membership) Member(id string) (*Member, bool) {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	m, ok := ms.members[id]
	return m, ok
}

// Owners returns the replica set of a key hash in ring order (primary
// first), regardless of health — callers reorder by health themselves so
// routing stays deterministic when everything is up.
func (ms *Membership) Owners(keyHash uint64) []*Member {
	return ms.OwnersN(keyHash, ms.replicas)
}

// OwnersN is Owners with an explicit replica count — how the router widens
// a hot key's replica set to R+k without touching the base factor.
func (ms *Membership) OwnersN(keyHash uint64, n int) []*Member {
	ms.mu.RLock()
	ids := ms.ring.Owners(keyHash, n)
	out := make([]*Member, 0, len(ids))
	for _, id := range ids {
		if m, ok := ms.members[id]; ok {
			out = append(out, m)
		}
	}
	ms.mu.RUnlock()
	return out
}

// Ring returns the current (immutable) ring — rebalancers snapshot it to
// diff against a prospective ring.
func (ms *Membership) Ring() *Ring {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	return ms.ring
}

// IDs returns the sorted member IDs (a copy of the ring's node set).
func (ms *Membership) IDs() []string {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	return append([]string(nil), ms.ring.Nodes()...)
}

// Vnodes returns the vnodes-per-member parameter, so a prospective ring can
// be built with the same geometry as the live one.
func (ms *Membership) Vnodes() int { return ms.vnodes }

// HealthyCount returns how many members are currently marked healthy.
func (ms *Membership) HealthyCount() int {
	n := 0
	for _, m := range ms.Members() {
		if m.Healthy() {
			n++
		}
	}
	return n
}

// downAfter is how many consecutive probe/request failures mark a member
// unhealthy.
const downAfter = 2

// ProbeAll probes every member once, synchronously (bounded by the
// client's timeout), and returns the number of healthy members after the
// sweep. Probes hit /readyz, not /healthz: a draining shard is alive but
// answers /readyz with 503 precisely so the router stops routing new work
// to it during its drain-grace window — "healthy" here means routable.
// Tests call ProbeAll directly; StartProber calls it on a ticker.
func (ms *Membership) ProbeAll(ctx context.Context, client *http.Client) int {
	members := ms.Members()
	var wg sync.WaitGroup
	for _, m := range members {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.probes.Add(1)
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.Addr()+"/readyz", nil)
			if err != nil {
				m.markProbe(false, downAfter)
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				m.markProbe(false, downAfter)
				return
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			m.markProbe(resp.StatusCode == http.StatusOK, downAfter)
			// Probes double as wire-address discovery: /readyz advertises the
			// shard's binary-protocol listener (even while draining), so the
			// router learns a restarted listener's new port with no extra
			// configuration. Decode failures (an intermediary's error page)
			// leave the known address untouched.
			var rr server.ReadyResponse
			if json.Unmarshal(body, &rr) == nil {
				m.SetWireAddr(normalizeWireAddr(rr.Wire, m.Addr()))
			}
		}()
	}
	wg.Wait()
	return ms.HealthyCount()
}

// StartProber probes all members every interval until ctx is cancelled.
// Routing does not depend on probes for correctness (failed requests fail
// over to the next replica anyway); probes just move dead shards to the
// back of the attempt order before a request has to find out the hard way.
func (ms *Membership) StartProber(ctx context.Context, interval time.Duration, client *http.Client) {
	if client == nil {
		client = &http.Client{Timeout: interval}
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				ms.ProbeAll(ctx, client)
			}
		}
	}()
}

// String summarises the membership for logs.
func (ms *Membership) String() string {
	members := ms.Members()
	return fmt.Sprintf("cluster{shards=%d healthy=%d replicas=%d}", len(members), ms.HealthyCount(), ms.replicas)
}
