package cluster

import (
	"math"
	"slices"
	"sort"

	"ftbfs/internal/core"
	"ftbfs/internal/store"
)

// DefaultVnodes is the number of virtual points each member contributes to
// the ring. More vnodes smooth the key distribution across members at the
// cost of a larger (still tiny) sorted array.
const DefaultVnodes = 64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds one 64-bit word into an FNV-1a state byte by byte. The ring
// only has to agree with itself (routers with the same member set must
// compute identical owners), so the mixing is self-contained here.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

func fnvMixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// KeyHash maps a structure key onto the ring's keyspace. ε enters as its
// IEEE-754 bit pattern, so every distinct registry key hashes to a
// distinct, process-stable point. Negative zero is folded into +0 first:
// the store's map keys compare ±0 equal (Go float equality), and routing
// must hash exactly what the store keys — two bit patterns for one key
// would send queries for an ε=0 structure to shards that never built it.
// The failure model enters only for non-edge keys: an edge and a vertex
// structure of the same (graph, source) are distinct registry entries and
// hash to distinct, generally different, ring positions, while every
// pre-existing edge key keeps exactly the position it had before the Model
// dimension existed — an upgraded cluster does not remap (and thereby
// orphan) the structures its shards already hold.
func KeyHash(k store.Key) uint64 {
	eps := k.Eps
	if eps == 0 {
		eps = 0
	}
	h := uint64(fnvOffset64)
	h = fnvMix(h, k.Graph)
	h = fnvMix(h, uint64(int64(k.Source)))
	h = fnvMix(h, math.Float64bits(eps))
	h = fnvMix(h, uint64(int64(k.Alg)))
	if k.Model != core.ModelEdge {
		h = fnvMix(h, uint64(k.Model))
	}
	return h
}

// ringPoint is one virtual node: a position on the ring owned by a member.
type ringPoint struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is an immutable consistent-hash ring over member IDs. Build a new
// one whenever membership changes; lookups are lock-free.
type Ring struct {
	nodes  []string // sorted member IDs
	points []ringPoint
}

// NewRing builds a ring over the given member IDs with vnodes virtual
// points each (DefaultVnodes when ≤ 0). The input is copied and sorted, so
// any permutation of the same IDs yields an identical ring.
func NewRing(ids []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	nodes := append([]string(nil), ids...)
	sort.Strings(nodes)
	r := &Ring{nodes: nodes, points: make([]ringPoint, 0, len(nodes)*vnodes)}
	for ni, id := range nodes {
		h := fnvMixString(fnvOffset64, id)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: fnvMix(h, uint64(v)), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.node < b.node // total order: hash collisions stay deterministic
	})
	return r
}

// Nodes returns the sorted member IDs of the ring.
func (r *Ring) Nodes() []string { return r.nodes }

// DeltaOwners diffs one key's replica set across a membership change:
// gained lists members owning the key only after, lost only before. It is
// the rebalancer's unit of work — on a join, gained is at most the joining
// member (so a transfer touches exactly the remapped ranges and nothing
// else); on a leave, gained is the members replacing the leaver in the
// key's replica set. Both rings must share the same vnodes parameter.
func DeltaOwners(before, after *Ring, replicas int, keyHash uint64) (gained, lost []string) {
	b := before.Owners(keyHash, replicas)
	a := after.Owners(keyHash, replicas)
	inB := make(map[string]bool, len(b))
	for _, id := range b {
		inB[id] = true
	}
	inA := make(map[string]bool, len(a))
	for _, id := range a {
		inA[id] = true
	}
	for _, id := range a {
		if !inB[id] {
			gained = append(gained, id)
		}
	}
	for _, id := range b {
		if !inA[id] {
			lost = append(lost, id)
		}
	}
	return gained, lost
}

// Owners returns the first `replicas` distinct member IDs found walking the
// ring clockwise from the key's hash — the replica set of the key, primary
// first. Fewer members than replicas returns all members, still in ring
// order for the key.
func (r *Ring) Owners(keyHash uint64, replicas int) []string {
	if len(r.points) == 0 || replicas <= 0 {
		return nil
	}
	if replicas > len(r.nodes) {
		replicas = len(r.nodes)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= keyHash })
	owners := make([]string, 0, replicas)
	for i := 0; i < len(r.points) && len(owners) < replicas; i++ {
		if id := r.nodes[r.points[(start+i)%len(r.points)].node]; !slices.Contains(owners, id) {
			owners = append(owners, id)
		}
	}
	return owners
}
