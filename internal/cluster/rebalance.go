package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"ftbfs/internal/server"
	"ftbfs/internal/store"
)

// This file is the router-driven side of elastic membership: AddShard and
// DrainShard compute the ring delta of a membership change, drive pull-based
// structure transfer through the shards' /handoff surface, and only then
// change routing — transfer before flip, so the first routed query on a new
// owner is served from a handed-off structure, never a cold rebuild (see
// doc.go for the full lifecycle). PromoteHot widens the hottest keys to R+k
// replication using the same pull machinery.

// RebalanceReport summarises one AddShard/DrainShard lifecycle.
type RebalanceReport struct {
	Rejoin      bool     `json:"rejoin,omitempty"` // address refresh only, nothing moved
	Ranges      int      `json:"ranges"`           // keys the ring delta remapped
	Transferred int      `json:"transferred"`      // structures installed on new owners
	Skipped     int      `json:"skipped"`          // records receivers already held
	Bytes       int64    `json:"bytes"`            // record bytes moved
	Unsourced   int      `json:"unsourced,omitempty"`
	Errors      []string `json:"errors,omitempty"`
}

// gatherInventory asks every member for its exportable keys and merges the
// answers into holder lists (in membership ring order — the pull source
// preference order). Shards that fail to answer just contribute nothing; the
// keys they exclusively held fall back to load-through on the new owner.
func (rt *Router) gatherInventory(ctx context.Context) map[store.Key][]*Member {
	members := rt.m.Members()
	keysOf := make([][]store.Key, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, err := rt.forward(ctx, rt.opts.Client, m, http.MethodGet, "/handoff/keys", nil)
			if err != nil || code != http.StatusOK {
				return
			}
			var kr server.HandoffKeysResponse
			if json.Unmarshal(body, &kr) != nil {
				return
			}
			for _, info := range kr.Keys {
				if k, err := info.StoreKey(); err == nil {
					keysOf[i] = append(keysOf[i], k)
				}
			}
		}()
	}
	wg.Wait()
	inv := make(map[store.Key][]*Member)
	for i, m := range members {
		for _, k := range keysOf[i] {
			inv[k] = append(inv[k], m)
		}
	}
	return inv
}

// memberKeys inventories a single member.
func (rt *Router) memberKeys(ctx context.Context, m *Member) ([]store.Key, error) {
	code, body, err := rt.forward(ctx, rt.opts.Client, m, http.MethodGet, "/handoff/keys", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("cluster: shard %s: status %d: %s", m.ID, code, bytes.TrimSpace(body))
	}
	var kr server.HandoffKeysResponse
	if err := json.Unmarshal(body, &kr); err != nil {
		return nil, err
	}
	keys := make([]store.Key, 0, len(kr.Keys))
	for _, info := range kr.Keys {
		if k, err := info.StoreKey(); err == nil {
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// pullTo posts one /handoff/pull to targetAddr: pull keys from src. The
// target need not be a member yet — on a join it is the not-yet-routed
// shard. Moved structures and bytes land in the router's rebalance counters.
func (rt *Router) pullTo(ctx context.Context, targetAddr string, src *Member, keys []server.HandoffKeyInfo) (server.HandoffPullResponse, error) {
	var resp server.HandoffPullResponse
	payload, err := json.Marshal(&server.HandoffPullRequest{
		From: src.Addr(),
		Wire: src.WireAddr(),
		Keys: keys,
	})
	if err != nil {
		return resp, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, targetAddr+"/handoff/pull", bytes.NewReader(payload))
	if err != nil {
		return resp, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Transfers are bulk work bounded by ctx, not by the query client's
	// timeout — the build client has none.
	res, err := rt.buildClient.Do(req)
	if err != nil {
		return resp, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("cluster: pull to %s: status %d", targetAddr, res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		return resp, err
	}
	rt.rm.structuresMoved.Add(uint64(resp.Transferred))
	rt.rm.bytesMoved.Add(uint64(resp.Bytes))
	return resp, nil
}

// firstHealthy returns the first healthy member of the list (or the first
// member at all — a source marked down may still answer a bulk read, and a
// failed pull only costs the fallback).
func firstHealthy(members []*Member) *Member {
	for _, m := range members {
		if m.Healthy() {
			return m
		}
	}
	if len(members) > 0 {
		return members[0]
	}
	return nil
}

// pullTask groups the keys one target pulls from one source.
type pullTask struct {
	src  *Member
	keys []server.HandoffKeyInfo
}

// runPulls drives a target's pull tasks, folding outcomes into the report
// and the pending/moved counters.
func (rt *Router) runPulls(ctx context.Context, targetAddr string, tasks []pullTask, report *RebalanceReport) {
	for _, t := range tasks {
		resp, err := rt.pullTo(ctx, targetAddr, t.src, t.keys)
		rt.rm.rangesPending.Add(-int64(len(t.keys)))
		if err != nil {
			report.Errors = append(report.Errors, err.Error())
			continue
		}
		rt.rm.rangesMoved.Add(uint64(len(t.keys)))
		report.Transferred += resp.Transferred
		report.Skipped += resp.Skipped
		report.Bytes += resp.Bytes
		report.Errors = append(report.Errors, resp.Errors...)
	}
}

// AddShard runs the join-side rebalance lifecycle: compute the ring delta
// for the prospective member, drive pull-based transfer of every structure
// the new shard will own onto it, and only then flip routing by joining it
// to the membership. A known ID is a rejoin — address refresh, nothing
// moves. The router reaches shards' queries over the binary protocol only,
// so a shard without a wire address is refused.
func (rt *Router) AddShard(ctx context.Context, id, addr, wireAddr string) (*RebalanceReport, error) {
	if wireAddr == "" {
		return nil, fmt.Errorf("cluster: shard %s has no wire address", id)
	}
	ms := rt.m
	if _, ok := ms.Member(id); ok {
		ms.Join(id, addr)
		if m, ok := ms.Member(id); ok {
			m.SetWireAddr(normalizeWireAddr(wireAddr, addr))
		}
		return &RebalanceReport{Rejoin: true}, nil
	}
	rt.rm.rebalances.Inc()
	report := &RebalanceReport{}
	before := ms.Ring()
	after := NewRing(append(ms.IDs(), id), ms.Vnodes())
	replicas := ms.Replicas()

	// Which keys does the joiner gain? Only keys some current shard holds
	// can move; everything else has nothing to transfer (and load-through
	// on first use behaves exactly as before the join).
	inv := rt.gatherInventory(ctx)
	bySource := make(map[*Member][]server.HandoffKeyInfo)
	for k, holders := range inv {
		gained, _ := DeltaOwners(before, after, replicas, KeyHash(k))
		owns := false
		for _, gid := range gained {
			if gid == id {
				owns = true
				break
			}
		}
		if !owns {
			continue
		}
		src := firstHealthy(holders)
		if src == nil {
			report.Unsourced++
			continue
		}
		bySource[src] = append(bySource[src], server.HandoffKeyFor(k))
		report.Ranges++
	}
	rt.rm.rangesPending.Add(int64(report.Ranges))
	var tasks []pullTask
	for src, keys := range bySource {
		tasks = append(tasks, pullTask{src: src, keys: keys})
	}
	rt.runPulls(ctx, addr, tasks, report)
	if err := ctx.Err(); err != nil {
		// The join was aborted mid-transfer (caller cancelled, deadline).
		// Routing must stay unflipped — the joiner holds an arbitrary prefix
		// of its ranges and must not start taking traffic for the rest.
		// runPulls already drained the pending counters; what did transfer is
		// harmless surplus the next AddShard attempt will skip.
		return report, fmt.Errorf("cluster: join of %s aborted before routing flip: %w", id, err)
	}

	// Flip routing only now: the joiner answers its first routed query from
	// a handed-off structure. Load-through stays the fallback for anything
	// the transfer missed — never the plan.
	ms.Join(id, addr)
	if m, ok := ms.Member(id); ok {
		m.SetWireAddr(normalizeWireAddr(wireAddr, addr))
	}
	return report, nil
}

// DrainShard runs the leave-side lifecycle: inventory the leaving shard,
// compute which members replace it in each key's replica set once it
// departs, drive pulls on those successors (sourced from the leaver, which
// is still serving), and remove it from the membership last. Keys the
// leaver held without owning (stale residue from earlier changes) move
// nowhere — no member gains them by its departure.
func (rt *Router) DrainShard(ctx context.Context, id string) (*RebalanceReport, error) {
	ms := rt.m
	leaver, ok := ms.Member(id)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown shard %q", id)
	}
	rt.rm.rebalances.Inc()
	report := &RebalanceReport{}
	before := ms.Ring()
	ids := make([]string, 0, len(ms.IDs()))
	for _, mid := range ms.IDs() {
		if mid != id {
			ids = append(ids, mid)
		}
	}
	after := NewRing(ids, ms.Vnodes())
	replicas := ms.Replicas()

	keys, err := rt.memberKeys(ctx, leaver)
	if err != nil {
		// The leaver is unreachable: nothing to push. Leave anyway — the
		// successors load or rebuild through, which is the fallback path.
		report.Errors = append(report.Errors, err.Error())
		ms.Leave(id)
		return report, nil
	}
	byTarget := make(map[*Member][]server.HandoffKeyInfo)
	for _, k := range keys {
		gained, _ := DeltaOwners(before, after, replicas, KeyHash(k))
		for _, gid := range gained {
			m, ok := ms.Member(gid)
			if !ok {
				continue
			}
			byTarget[m] = append(byTarget[m], server.HandoffKeyFor(k))
			report.Ranges++
		}
	}
	rt.rm.rangesPending.Add(int64(report.Ranges))
	for target, tkeys := range byTarget {
		rt.runPulls(ctx, target.Addr(), []pullTask{{src: leaver, keys: tkeys}}, report)
	}
	ms.Leave(id)
	return report, nil
}

// PromoteHot promotes every tracked key with at least minHits recorded hits
// to R+extra replication: the extra owners — the next distinct members on
// the key's ring walk — pull the structure from a current owner, and only
// once the pull succeeds does ownersFor start returning the widened set
// (transfer before flip, again). Returns how many keys were promoted this
// call; already-promoted keys are skipped.
func (rt *Router) PromoteHot(ctx context.Context, extra int, minHits uint64) (int, error) {
	if extra < 1 {
		return 0, nil
	}
	rt.hotMu.Lock()
	var cands []store.Key
	for k, n := range rt.hotHits {
		if n >= minHits && rt.promoted[k] < extra {
			cands = append(cands, k)
		}
	}
	rt.hotMu.Unlock()
	replicas := rt.m.Replicas()
	promoted := 0
	var firstErr error
	for _, k := range cands {
		base := rt.m.OwnersN(KeyHash(k), replicas)
		wide := rt.m.OwnersN(KeyHash(k), replicas+extra)
		if len(wide) <= len(base) {
			continue // cluster is smaller than R+extra; nothing to widen onto
		}
		src := firstHealthy(base)
		if src == nil {
			continue
		}
		info := []server.HandoffKeyInfo{server.HandoffKeyFor(k)}
		ok := true
		for _, m := range wide[len(base):] {
			if _, err := rt.pullTo(ctx, m.Addr(), src, info); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		rt.hotMu.Lock()
		rt.promoted[k] = extra
		rt.hotMu.Unlock()
		rt.rm.hotPromotions.Inc()
		promoted++
	}
	return promoted, firstErr
}
