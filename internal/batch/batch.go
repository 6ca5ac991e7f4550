// Package batch builds many FT-BFS structures over one shared frozen graph:
// the multi-request orchestrator behind ftbfs.BuildBatch. Real deployments of
// the (b, r) tradeoff — sensitivity sweeps over ε, cost planning across price
// ratios, multi-source surveillance networks — need dozens of structures on
// the same network, and a naive loop of Build calls recomputes the canonical
// BFS tree, the Fact 3.3 decomposition, and the whole Phase S0
// replacement-path enumeration once per request.
//
// The orchestrator instead groups the requests by source and dispatches the
// groups to a worker pool. Each worker owns one replacement.Engine — recycled
// between sources via Engine.Reset, so the engine's search and repair
// scratch are allocated once per worker, not once per request.
// Within a source group the canonical tree (with its decomposition, once
// Phase S2 adds it), the memoised Phase S0 pairs and the Phase S2 scratch
// are computed once and shared by every ε, and core.BuildGroup runs a
// single reinforcement sweep for the whole group: one repair of each failed
// subtree, O(Σ_v depth(v)·deg(v)) over all tree edges. Every structure
// produced is identical (the same ε, algorithm and edge sets) to the one a
// sequential core.Build would return.
package batch

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ftbfs/internal/core"
	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// Request names one structure to build: a source, a tradeoff parameter and
// the per-build options (algorithm, ablations).
type Request struct {
	Source int
	Eps    float64
	Opt    core.Options
}

// Options tunes a batch run.
type Options struct {
	// Workers is the size of the worker pool; ≤ 0 means GOMAXPROCS. The
	// unit of parallelism is the source group (requests sharing a source
	// are built by one worker so they can share trees, pairs and the
	// reinforcement sweep).
	Workers int
}

// Build constructs one structure per request over the shared frozen graph.
// Results are returned in request order; the first failing request aborts the
// batch with its error. The output is deterministic: independent of the
// worker count and byte-identical to sequential core.Build calls.
func Build(g *graph.Graph, reqs []Request, opt Options) ([]*core.Structure, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("batch: graph must be frozen")
	}
	if len(reqs) == 0 {
		return nil, nil
	}
	for i, r := range reqs {
		if r.Source < 0 || r.Source >= g.N() {
			return nil, fmt.Errorf("batch: request %d: source %d out of range [0,%d)", i, r.Source, g.N())
		}
		if err := core.ValidateBuild(r.Eps, r.Opt); err != nil {
			return nil, fmt.Errorf("batch: request %d (source %d, ε=%g): %w", i, r.Source, r.Eps, err)
		}
	}

	// Group request indices by source, keeping sources in first-appearance
	// order and requests in submission order within each group.
	groupOf := make(map[int]int)
	var groups [][]int // request indices per source group
	var sources []int
	for i, r := range reqs {
		gi, ok := groupOf[r.Source]
		if !ok {
			gi = len(groups)
			groupOf[r.Source] = gi
			groups = append(groups, nil)
			sources = append(sources, r.Source)
		}
		groups[gi] = append(groups[gi], i)
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}

	out := make([]*core.Structure, len(reqs))
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var failed atomic.Bool // a group failed: stop claiming new groups
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var en *replacement.Engine // recycled across this worker's sources
			for {
				gi := int(next.Add(1) - 1)
				if gi >= len(groups) || failed.Load() {
					return
				}
				s := sources[gi]
				if en == nil {
					en = replacement.NewEngine(g, s)
				} else {
					en.Reset(s)
				}
				idxs := groups[gi]
				items := make([]core.GroupItem, len(idxs))
				for k, ri := range idxs {
					items[k] = core.GroupItem{Eps: reqs[ri].Eps, Opt: reqs[ri].Opt}
				}
				sts, err := core.BuildGroup(en, items)
				if err != nil {
					// attribute the failure to the request whose item broke
					ri := idxs[0]
					var ie *core.ItemError
					if errors.As(err, &ie) {
						ri = idxs[ie.Item]
						err = ie.Err
					}
					errs[ri] = err
					failed.Store(true)
					continue
				}
				for k, ri := range idxs {
					out[ri] = sts[k]
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("batch: request %d (source %d, ε=%g): %w", i, reqs[i].Source, reqs[i].Eps, err)
		}
	}
	return out, nil
}

// CostSweep builds one structure per ε in the grid through the batch
// orchestrator, all sharing the source's trees, Phase S0 pairs and
// reinforcement sweep, and prices each. It returns the priced sweep and the
// index of the cheapest point.
func CostSweep(g *graph.Graph, s int, epsGrid []float64, backupPrice, reinforcePrice float64, opt Options) ([]core.CostPoint, int, error) {
	reqs := make([]Request, len(epsGrid))
	for i, eps := range epsGrid {
		reqs[i] = Request{Source: s, Eps: eps}
	}
	sts, err := Build(g, reqs, opt)
	if err != nil {
		return nil, -1, err
	}
	points := make([]core.CostPoint, 0, len(epsGrid))
	best := -1
	for i, st := range sts {
		cp := core.CostPoint{
			Eps:        epsGrid[i],
			Backup:     st.BackupCount(),
			Reinforced: st.ReinforcedCount(),
			Cost:       st.Cost(backupPrice, reinforcePrice),
		}
		points = append(points, cp)
		if best == -1 || cp.Cost < points[best].Cost {
			best = len(points) - 1
		}
	}
	return points, best, nil
}
