package core

import (
	"sync"

	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// LastUnprotectedParallel is LastUnprotected with the per-failure sweeps
// distributed over workers goroutines (≤ 0 = GOMAXPROCS). The result is
// identical to the sequential computation.
func LastUnprotectedParallel(en *replacement.Engine, H *graph.EdgeSet, workers int) *graph.EdgeSet {
	out := graph.NewEdgeSet(en.G.M())
	var mu sync.Mutex
	// SubtreeOf walks shared tree structures read-only; each worker keeps
	// its own scratch slice.
	type local struct{ subtree []int32 }
	pool := sync.Pool{New: func() any { return &local{} }}
	en.ForEachFailureParallel(workers, func(e graph.EdgeID, child int32, distE []int32) {
		l := pool.Get().(*local)
		l.subtree = en.SubtreeOf(child, l.subtree[:0])
		for _, v := range l.subtree {
			if !lastProtectedFor(en, H, v, e, distE) {
				mu.Lock()
				out.Add(e)
				mu.Unlock()
				break
			}
		}
		pool.Put(l)
	})
	return out
}
