package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ftbfs"
	"ftbfs/internal/store"
)

func testKeys(n int, seed int64) []store.Key {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]store.Key, n)
	for i := range keys {
		keys[i] = store.Key{
			Graph:  rng.Uint64(),
			Source: rng.Intn(100),
			Eps:    float64(rng.Intn(8)) / 8,
		}
	}
	return keys
}

func TestRingDeterministicAcrossJoinOrder(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e"}
	r1 := NewRing(ids, 32)
	shuffled := []string{"d", "a", "e", "c", "b"}
	r2 := NewRing(shuffled, 32)
	for _, k := range testKeys(500, 1) {
		h := KeyHash(k)
		o1 := r1.Owners(h, 3)
		o2 := r2.Owners(h, 3)
		if fmt.Sprint(o1) != fmt.Sprint(o2) {
			t.Fatalf("owner sets differ for %v: %v vs %v", k, o1, o2)
		}
		if len(o1) != 3 {
			t.Fatalf("want 3 owners, got %v", o1)
		}
		seen := map[string]bool{}
		for _, id := range o1 {
			if seen[id] {
				t.Fatalf("duplicate owner in %v", o1)
			}
			seen[id] = true
		}
	}
}

// TestKeyHashNegativeZeroEps pins the routing invariant that KeyHash hashes
// exactly what the store keys: ±0 compare equal as Go map keys, so they
// must land on the same ring position.
func TestKeyHashNegativeZeroEps(t *testing.T) {
	pos := store.Key{Graph: 42, Source: 1, Eps: 0}
	neg := store.Key{Graph: 42, Source: 1, Eps: math.Copysign(0, -1)}
	if KeyHash(pos) != KeyHash(neg) {
		t.Fatalf("KeyHash(+0 eps) = %x, KeyHash(-0 eps) = %x — same store key routes to different shards",
			KeyHash(pos), KeyHash(neg))
	}
}

// TestKeyHashPinned pins one edge key's and one vertex key's ring position
// to fixed values: a change to how the key's failure model is typed or
// hashed must not move a structure a cluster already holds.
func TestKeyHashPinned(t *testing.T) {
	edge := store.Key{Graph: 0x633c26dbd76a1f1d, Source: 7, Eps: 0.3, Alg: ftbfs.AlgoEpsilon}
	if got := KeyHash(edge); got != 0xc3d7536d68c5f7aa {
		t.Fatalf("KeyHash(%v) = %#x, want 0xc3d7536d68c5f7aa", edge, got)
	}
	vertex := store.VertexKey(0x633c26dbd76a1f1d, 7)
	if got := KeyHash(vertex); got != 0xa49158899f611684 {
		t.Fatalf("KeyHash(%v) = %#x, want 0xa49158899f611684", vertex, got)
	}
}

func TestRingDistribution(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3"}
	r := NewRing(ids, 0) // DefaultVnodes
	counts := map[string]int{}
	keys := testKeys(4000, 2)
	for _, k := range keys {
		counts[r.Owners(KeyHash(k), 1)[0]]++
	}
	for _, id := range ids {
		// With 64 vnodes the load factor stays within a loose band; the
		// bound here only guards against a pathologically broken hash.
		if counts[id] < len(keys)/16 {
			t.Fatalf("shard %s owns %d of %d keys — distribution collapsed: %v", id, counts[id], len(keys), counts)
		}
	}
}

// TestRingMinimalRebalance is the consistent-hashing property that makes
// join/leave cheap: removing one member only remaps keys that member owned.
func TestRingMinimalRebalance(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3", "s4"}
	before := NewRing(ids, 64)
	after := NewRing([]string{"s0", "s1", "s2", "s4"}, 64) // s3 left
	moved, owned := 0, 0
	for _, k := range testKeys(3000, 3) {
		h := KeyHash(k)
		b := before.Owners(h, 1)[0]
		a := after.Owners(h, 1)[0]
		if b == "s3" {
			owned++
			continue // expected to move somewhere
		}
		if a != b {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the departed shard moved anyway", moved)
	}
	if owned == 0 {
		t.Fatal("departed shard owned no keys — test is vacuous")
	}
}

func TestMembershipJoinLeaveRejoin(t *testing.T) {
	ms := NewMembership(2, 16)
	ms.Join("s0", "http://h0")
	ms.Join("s1", "http://h1")
	ms.Join("s2", "http://h2")
	k := testKeys(1, 4)[0]
	ownersOf := func() string {
		var ids []string
		for _, m := range ms.Owners(KeyHash(k)) {
			ids = append(ids, m.ID)
		}
		return fmt.Sprint(ids)
	}
	before := ownersOf()
	// A rejoin under a new address must not remap anything: the ring hashes
	// IDs, not addresses.
	ms.Join("s1", "http://h1-restarted")
	if got := ownersOf(); got != before {
		t.Fatalf("rejoin remapped owners: %s -> %s", before, got)
	}
	m, _ := ms.Member("s1")
	if m.Addr() != "http://h1-restarted" {
		t.Fatalf("rejoin did not update the address: %s", m.Addr())
	}
	// Leaving removes the member from every owner set.
	ms.Leave("s1")
	for _, m := range ms.Owners(KeyHash(k)) {
		if m.ID == "s1" {
			t.Fatal("departed member still owns keys")
		}
	}
	if len(ms.Members()) != 2 {
		t.Fatalf("member count %d after leave, want 2", len(ms.Members()))
	}
}

// TestDeltaOwnersExhaustive is the rebalancer's correctness table: over
// every member-set size and replication factor in range, a join must gain
// keys only on the joiner (and lose at most displaced replicas), a leave
// must lose keys only on the departed member, and a rejoin — the same ID
// set — must move nothing at all. This is the "exactly the departed ranges
// and nothing else" property AddShard/DrainShard rely on.
func TestDeltaOwnersExhaustive(t *testing.T) {
	keys := testKeys(400, 7)
	memberIDs := []string{"s0", "s1", "s2", "s3", "s4"}
	for size := 1; size <= len(memberIDs); size++ {
		base := memberIDs[:size]
		for replicas := 1; replicas <= 3; replicas++ {
			name := fmt.Sprintf("members=%d/replicas=%d", size, replicas)
			t.Run(name, func(t *testing.T) {
				before := NewRing(base, 32)

				// Join: a new member enters the ring.
				joiner := "z-joiner"
				afterJoin := NewRing(append(append([]string(nil), base...), joiner), 32)
				joinerGained := 0
				for _, k := range keys {
					h := KeyHash(k)
					gained, lost := DeltaOwners(before, afterJoin, replicas, h)
					for _, id := range gained {
						if id != joiner {
							t.Fatalf("join of %s made %s gain key %x", joiner, id, h)
						}
						joinerGained++
					}
					// The joiner displaces at most one replica per key, and
					// gains/losses pair up: a key loses an owner only because
					// the joiner pushed it out of the replica set.
					if len(gained) > 1 || len(lost) > len(gained) {
						t.Fatalf("join delta not minimal: gained=%v lost=%v", gained, lost)
					}
					// The replica set never shrinks below min(replicas, size)
					// across the join.
					want := replicas
					if size < want {
						want = size
					}
					if got := len(afterJoin.Owners(h, replicas)); got < want {
						t.Fatalf("replica set shrank across join: %d < %d", got, want)
					}
				}
				if joinerGained == 0 {
					t.Fatal("joiner gained no keys at all — vacuous")
				}

				// Leave: each member departs in turn.
				for _, dep := range base {
					var rest []string
					for _, id := range base {
						if id != dep {
							rest = append(rest, id)
						}
					}
					afterLeave := NewRing(rest, 32)
					departedLost := 0
					for _, k := range keys {
						h := KeyHash(k)
						gained, lost := DeltaOwners(before, afterLeave, replicas, h)
						for _, id := range lost {
							if id != dep {
								t.Fatalf("leave of %s made %s lose key %x", dep, id, h)
							}
							departedLost++
						}
						// Each departure admits at most one successor per key.
						if len(lost) > 1 || len(gained) > len(lost) {
							t.Fatalf("leave delta not minimal: gained=%v lost=%v", gained, lost)
						}
						// Keys the departed member did not own keep their
						// exact owner list (order included).
						if len(lost) == 0 {
							b := before.Owners(h, replicas)
							a := afterLeave.Owners(h, replicas)
							if fmt.Sprint(b) != fmt.Sprint(a) {
								t.Fatalf("unowned key remapped on leave of %s: %v -> %v", dep, b, a)
							}
						}
					}
					if size > 1 && departedLost == 0 {
						t.Fatalf("departed member %s lost no keys — vacuous", dep)
					}
				}

				// Rejoin: the same ID set (any order) is the identity delta.
				shuffled := append([]string(nil), base...)
				for i := range shuffled {
					j := (i * 3) % len(shuffled)
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				}
				rejoined := NewRing(shuffled, 32)
				for _, k := range keys {
					gained, lost := DeltaOwners(before, rejoined, replicas, KeyHash(k))
					if len(gained) != 0 || len(lost) != 0 {
						t.Fatalf("rejoin moved keys: gained=%v lost=%v", gained, lost)
					}
				}
			})
		}
	}
}

func TestMemberHealthThreshold(t *testing.T) {
	m := &Member{ID: "x"}
	m.markRequest(false, 2)
	if !m.Healthy() {
		t.Fatal("single request failure marked member down (threshold is 2)")
	}
	m.markRequest(false, 2)
	if m.Healthy() {
		t.Fatal("two consecutive request failures did not mark member down")
	}
	m.markRequest(true, 2)
	if !m.Healthy() {
		t.Fatal("request success did not recover the member")
	}
	// The probe signal is independent: a draining shard keeps serving
	// requests (request signal healthy) yet its 503 probes drain it out —
	// and request successes must not cancel that.
	m.markProbe(false, 2)
	m.markProbe(false, 2)
	if m.Healthy() {
		t.Fatal("two probe failures did not mark member down")
	}
	m.markRequest(true, 2)
	if m.Healthy() {
		t.Fatal("request success overrode probe-owned readiness")
	}
	m.markProbe(true, 2)
	if !m.Healthy() {
		t.Fatal("probe success did not restore the member")
	}
}

// TestHealthyFirstMatchesStableSort holds the router's in-place owner
// ordering to the stable sort on "healthy before unhealthy" it stands for,
// for every health pattern of up to five members.
func TestHealthyFirstMatchesStableSort(t *testing.T) {
	for n := 0; n <= 5; n++ {
		for down := 0; down < 1<<n; down++ {
			members := make([]*Member, n)
			for i := range members {
				members[i] = &Member{ID: fmt.Sprintf("s%d", i)}
				members[i].reqDown.Store(down&(1<<i) != 0)
			}
			want := append([]*Member(nil), members...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Healthy() && !want[j].Healthy() })
			if got := healthyFirst(append([]*Member(nil), members...)); !slices.Equal(got, want) {
				t.Fatalf("%d members, down mask %b: ordered %v, want %v", n, down, memberIDs(got), memberIDs(want))
			}
		}
	}
}

func memberIDs(ms []*Member) []string {
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return ids
}
