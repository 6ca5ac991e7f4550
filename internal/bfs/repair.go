package bfs

import (
	"math"

	"ftbfs/internal/graph"
)

// Repair recomputes BFS distances after a tree-edge or tree-vertex failure
// (Run), touching only the vertices that can actually change: the failed
// subtree. Deleting a tree edge e = (p, c) of a BFS tree of H leaves every
// vertex outside the subtree of c with its intact distance (its tree path
// avoids e), so the new distances inside the subtree satisfy a unit-weight
// shortest-path problem seeded from the arcs crossing into the subtree: for
// w inside,
//
//	dist'(w) = min( min_{u outside, {u,w} ∈ H\{e}} intact(u) + 1 + dist_sub(w', w) )
//
// where the inner walk stays inside the subtree (any shortest path in
// H\{e}, decomposed at its LAST entry into the subtree, has exactly this
// shape). Repair solves it with a bucket queue over distance levels — a
// multi-seed BFS whose cost is O(Σ_{w ∈ subtree} deg_H(w)) instead of the
// O(|E(H)|) of a from-scratch search, and O(1) extra per level spanned.
//
// A Repair is not safe for concurrent use; pool it alongside the oracle
// that owns it.
type Repair struct {
	inSub   []int32 // epoch stamp: v is in the current subtree
	settled []int32 // epoch stamp: dist[v] is final for the current run
	dist    []int32
	epoch   int32
	buckets [][]int32 // pending vertices per distance level
	levels  []int32   // non-empty bucket levels of the current run, for reset
}

// NewRepair returns a repair scratch for graphs with n vertices.
func NewRepair(n int) *Repair {
	return &Repair{
		inSub:   make([]int32, n),
		settled: make([]int32, n),
		dist:    make([]int32, n),
		buckets: make([][]int32, n+1),
	}
}

// Run computes dist(s, ·) in H minus one failure for every vertex of sub,
// where h is the CSR adjacency of H and intact[u] is the unchanged distance
// of every u ∉ sub. The failure is a tree edge of H's BFS tree (bannedEdge,
// with bannedVertex -1), and sub the subtree hanging below it; or a tree
// vertex w (bannedVertex, with bannedEdge graph.NoEdge), and sub the strict
// descendants of w, with every arc incident to w banned. Either way sub is
// the exact set of vertices whose distance may change: every vertex outside
// keeps its tree path, and a failed vertex leaves the graph. Results stay
// readable through Dist until the next Run.
func (r *Repair) Run(h *graph.CSR, intact []int32, sub []int32, bannedEdge graph.EdgeID, bannedVertex int32) {
	r.nextEpoch()
	for _, v := range sub {
		r.inSub[v] = r.epoch
	}
	// Seed each subtree vertex with its best entering arc from the settled
	// outside world. The failed edge is the one tree arc entering the
	// subtree root, and a failed vertex is never in sub but holds an intact
	// distance; skipping both here is the only place the failure shows up —
	// the relaxation below stays inside sub, which the failed vertex cannot
	// be part of.
	for _, v := range sub {
		best := int32(-1)
		for _, a := range h.ArcsOf(v) {
			if a.ID == bannedEdge || a.To == bannedVertex || r.inSub[a.To] == r.epoch {
				continue
			}
			if d := intact[a.To]; d >= 0 && (best < 0 || d+1 < best) {
				best = d + 1
			}
		}
		if best >= 0 {
			r.push(v, best)
		}
	}
	// Unit-weight Dijkstra over the bucket queue: levels settle in
	// increasing order, each pop either settles a vertex or discards a
	// superseded entry.
	for li := 0; li < len(r.levels); li++ {
		level := r.levels[li]
		// Draining pushes only to level+1, never back into this bucket, so a
		// plain index loop over the (possibly growing) levels list is safe.
		bucket := r.buckets[level]
		for bi := 0; bi < len(bucket); bi++ {
			v := bucket[bi]
			if r.settled[v] == r.epoch {
				continue
			}
			r.settled[v] = r.epoch
			r.dist[v] = level
			for _, a := range h.ArcsOf(v) {
				if a.ID == bannedEdge || r.inSub[a.To] != r.epoch || r.settled[a.To] == r.epoch {
					continue
				}
				r.push(a.To, level+1)
			}
		}
		r.buckets[level] = bucket[:0]
	}
	r.levels = r.levels[:0]
}

// push enqueues v at the given distance level, recording first use of the
// level so Run can drain and reset exactly the buckets it touched. Levels
// are pushed in non-decreasing order (seeds may arrive unordered, but every
// relaxation targets level+1 ≥ the level being drained), so an insertion
// sort step keeps r.levels sorted at O(1) amortized cost.
func (r *Repair) push(v, level int32) {
	if int(level) >= len(r.buckets) {
		return // distances are < n by construction; guard against misuse
	}
	if len(r.buckets[level]) == 0 {
		r.levels = append(r.levels, level)
		for i := len(r.levels) - 1; i > 0 && r.levels[i-1] > r.levels[i]; i-- {
			r.levels[i-1], r.levels[i] = r.levels[i], r.levels[i-1]
		}
	}
	r.buckets[level] = append(r.buckets[level], v)
}

// Dist returns the repaired distance of v — valid only for vertices of the
// sub slice passed to the last Run; vertices the repair never reached are
// Unreachable.
func (r *Repair) Dist(v int32) int32 {
	if r.settled[v] != r.epoch {
		return Unreachable
	}
	return r.dist[v]
}

// nextEpoch advances the stamp, resetting the arrays on the (practically
// unreachable) wrap so a long-lived server never confuses stamps.
func (r *Repair) nextEpoch() {
	if r.epoch == math.MaxInt32 {
		for i := range r.inSub {
			r.inSub[i] = 0
			r.settled[i] = 0
		}
		r.epoch = 0
	}
	r.epoch++
}
