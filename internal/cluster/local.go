package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"ftbfs/internal/chaos"
	"ftbfs/internal/server"
	"ftbfs/internal/store"
	"ftbfs/internal/wire"
)

// LocalShard is one in-process shard of a LocalCluster: its own store, its
// own server, its own loopback HTTP listener plus a binary-protocol listener
// next to it. Kill/Restart flip both listeners while the store survives —
// exactly what a crashed-and-restarted shard process with a persist
// directory looks like to the router.
type LocalShard struct {
	ID     string
	Store  *store.Store
	Server *server.Server

	ts       *httptest.Server
	wireStop func()          // stops the wire listener; nil while it is down
	chaos    *chaos.Injector // nil when the cluster runs fault-free
}

// startWire opens a loopback binary-protocol listener for the shard and
// advertises it on the server (so /healthz, /readyz carry it). Under a
// chaos plan the listener is wrapped at the wire layer, where injected
// corruption is legal (the v2 frame CRC catches it).
func (s *LocalShard) startWire() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	ln = s.chaos.Listener(ln, chaos.LayerWire)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = wire.Serve(ctx, ln, s.Server)
	}()
	s.wireStop = func() {
		cancel()
		<-done
	}
	s.Server.SetWireAddr(addr)
	return nil
}

// startHTTP boots the shard's HTTP listener, wrapped by the chaos injector
// at the HTTP layer (all faults except byte corruption — HTTP bodies carry
// no checksum, so corrupting them could silently change answers).
func (s *LocalShard) startHTTP() {
	s.ts = httptest.NewUnstartedServer(s.Server)
	s.ts.Listener = s.chaos.Listener(s.ts.Listener, chaos.LayerHTTP)
	s.ts.Start()
}

// stopWire tears the binary listener down (and un-advertises it). It returns
// once the listener and every connection it accepted are closed, so a dead
// listener is dead for whatever the caller does next.
func (s *LocalShard) stopWire() {
	if s.wireStop != nil {
		s.wireStop()
		s.wireStop = nil
	}
	s.Server.SetWireAddr("")
}

// Addr returns the shard's current base URL ("" while killed).
func (s *LocalShard) Addr() string {
	if s.ts == nil {
		return ""
	}
	return s.ts.URL
}

// LocalCluster is an in-process shard cluster on loopback: N shard servers
// plus a router, wired through real HTTP and wire listeners. Tests and
// benchmarks use it to exercise the exact request path of a deployed
// cluster — ring routing, hedged reads, scatter-gather, failover — without
// leaving the test binary.
type LocalCluster struct {
	Shards []*LocalShard
	Router *Router

	routerTS *httptest.Server
	cancel   context.CancelFunc
	opts     LocalOptions
	nextID   int
}

// LocalOptions tunes StartLocal.
type LocalOptions struct {
	// Replicas is the replication factor (default 2, capped at the shard
	// count by the ring).
	Replicas int
	// Vnodes per shard on the ring (DefaultVnodes when 0).
	Vnodes int
	// Router options (hedge delay, client, ID).
	Router RouterOptions
	// StoreCapacity per shard (0 = unlimited).
	StoreCapacity int
	// Chaos, when non-nil, runs the whole cluster under the injector's fault
	// plan: every shard's HTTP and wire listeners are wrapped (corruption
	// wire-only) and its store gets the injector's disk hooks. nil is a
	// strict no-op — the fault-free path is byte-identical to before.
	Chaos *chaos.Injector
	// PersistRoot, when non-empty, gives each shard a persist directory
	// under it (PersistRoot/<shardID>) instead of a memory-only store —
	// required for disk-fault plans to have anything to break.
	PersistRoot string
}

// StartLocal boots n shards and a router over them, all on loopback.
// Close must be called to tear everything down.
func StartLocal(n int, opts LocalOptions) (*LocalCluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one shard, got %d", n)
	}
	if opts.Replicas == 0 {
		opts.Replicas = 2
	}
	ms := NewMembership(opts.Replicas, opts.Vnodes)
	lc := &LocalCluster{opts: opts}
	for i := 0; i < n; i++ {
		sh, err := lc.bootShard()
		if err != nil {
			lc.Close()
			return nil, err
		}
		ms.Join(sh.ID, sh.ts.URL)
		// Seed the wire address directly — probes would learn it from
		// /readyz too, but tests without a prober must reach the shard from
		// the first request.
		if m, ok := ms.Member(sh.ID); ok {
			m.SetWireAddr(normalizeWireAddr(sh.Server.WireAddr(), sh.ts.URL))
		}
		lc.Shards = append(lc.Shards, sh)
	}
	lc.Router = NewRouter(ms, opts.Router)
	lc.routerTS = httptest.NewServer(lc.Router)
	return lc, nil
}

// bootShard starts a fresh shard (store, server, HTTP + wire listeners) with
// the next unused ID, without touching the membership.
func (lc *LocalCluster) bootShard() (*LocalShard, error) {
	id := fmt.Sprintf("shard%d", lc.nextID)
	lc.nextID++
	dir := ""
	if lc.opts.PersistRoot != "" {
		dir = filepath.Join(lc.opts.PersistRoot, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	st, err := store.New(lc.opts.StoreCapacity, dir)
	if err != nil {
		return nil, err
	}
	if lc.opts.Chaos != nil {
		st.SetIOHooks(lc.opts.Chaos.StoreHooks())
	}
	srv := server.New(st)
	srv.SetIdentity("shard", id)
	sh := &LocalShard{ID: id, Store: st, Server: srv, chaos: lc.opts.Chaos}
	sh.startHTTP()
	if err := sh.startWire(); err != nil {
		sh.ts.Close()
		return nil, err
	}
	return sh, nil
}

// AddShard boots a brand-new shard and joins it through the router's
// rebalance lifecycle: structures the new shard will own transfer onto it
// before it starts taking routed traffic.
func (lc *LocalCluster) AddShard(ctx context.Context) (*LocalShard, *RebalanceReport, error) {
	sh, err := lc.bootShard()
	if err != nil {
		return nil, nil, err
	}
	report, err := lc.Router.AddShard(ctx, sh.ID, sh.ts.URL, sh.Server.WireAddr())
	if err != nil {
		sh.ts.Close()
		sh.stopWire()
		return nil, nil, err
	}
	lc.Shards = append(lc.Shards, sh)
	return sh, report, nil
}

// RemoveShard drains shard i through the router (its resident structures
// push to the members gaining them) and then tears it down for good —
// unlike KillShard, the ID leaves the ring and its ranges remap.
func (lc *LocalCluster) RemoveShard(ctx context.Context, i int) (*RebalanceReport, error) {
	sh := lc.Shards[i]
	report, err := lc.Router.DrainShard(ctx, sh.ID)
	if err != nil {
		return nil, err
	}
	if sh.ts != nil {
		sh.ts.Close()
		sh.ts = nil
	}
	sh.stopWire()
	lc.Shards = append(lc.Shards[:i], lc.Shards[i+1:]...)
	return report, nil
}

// URL returns the router's base URL — the single address clients talk to.
func (lc *LocalCluster) URL() string { return lc.routerTS.URL }

// StartProber runs the router's health prober until Close. Tests that need
// deterministic health state call ProbeAll on the membership directly
// instead.
func (lc *LocalCluster) StartProber(interval time.Duration) {
	ctx, cancel := context.WithCancel(context.Background())
	lc.cancel = cancel
	lc.Router.Membership().StartProber(ctx, interval, &http.Client{Timeout: interval})
}

// KillShard stops shard i's listener: in-flight connections drop and new
// requests fail fast, like a crashed process. The membership keeps the ID
// (the shard is expected back), so no keys remap; the router fails over.
func (lc *LocalCluster) KillShard(i int) {
	sh := lc.Shards[i]
	if sh.ts != nil {
		sh.ts.Close()
		sh.ts = nil
	}
	sh.stopWire()
}

// RestartShard brings a killed shard back on a fresh port with its store
// intact, updating the membership address (same ID, so the ring — and every
// key's owner set — is unchanged: deterministic rebalance means a rejoin
// moves nothing).
func (lc *LocalCluster) RestartShard(i int) {
	sh := lc.Shards[i]
	if sh.ts != nil {
		return
	}
	sh.startHTTP()
	_ = sh.startWire()
	ms := lc.Router.Membership()
	ms.Join(sh.ID, sh.ts.URL)
	// A restarted shard's wire listener is on a fresh port; update the
	// member so attempts re-dial there instead of failing on the old one
	// (probes would learn it from /readyz anyway).
	if m, ok := ms.Member(sh.ID); ok {
		m.SetWireAddr(normalizeWireAddr(sh.Server.WireAddr(), sh.ts.URL))
	}
}

// Close tears down the router and every shard.
func (lc *LocalCluster) Close() {
	if lc.cancel != nil {
		lc.cancel()
	}
	if lc.routerTS != nil {
		lc.routerTS.Close()
	}
	for _, sh := range lc.Shards {
		if sh.ts != nil {
			sh.ts.Close()
		}
		sh.stopWire()
	}
}
