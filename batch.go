package ftbfs

import (
	"ftbfs/internal/batch"
	"ftbfs/internal/core"
)

// BatchRequest names one structure for BuildBatch: the BFS source, the
// tradeoff parameter ε, and optional per-build options (algorithm choice,
// ablations).
type BatchRequest struct {
	Source  int
	Eps     float64
	Options []BuildOption
}

// BatchOption tunes BuildBatch.
type BatchOption func(*batch.Options)

// WithBatchWorkers sets the size of the batch worker pool (≤ 0 means
// GOMAXPROCS). Parallelism is across sources: requests sharing a source are
// built by one worker so they can share the canonical BFS tree, the
// replacement-path preprocessing and the reinforcement sweep.
func WithBatchWorkers(w int) BatchOption {
	return func(o *batch.Options) { o.Workers = w }
}

// BuildBatch builds FT-BFS structures for many (source, ε, algorithm)
// requests over the shared graph, which is frozen by this call. Compared with
// a loop of Build calls it computes the canonical BFS tree, the Fact 3.3
// decomposition and the Phase S0 replacement paths once per distinct source
// (not once per request), runs one reinforcement sweep per source, recycles
// engine scratch across requests, and dispatches source groups onto a worker
// pool. Results are returned in request order and each structure is
// byte-identical (via Save) to what the corresponding Build call returns; the
// first failing request aborts the batch with its error.
func BuildBatch(g *Graph, reqs []BatchRequest, opts ...BatchOption) ([]*Structure, error) {
	var bo batch.Options
	for _, f := range opts {
		f(&bo)
	}
	g.g.Freeze()
	breqs := make([]batch.Request, len(reqs))
	for i, r := range reqs {
		var o core.Options
		for _, f := range r.Options {
			f(&o)
		}
		breqs[i] = batch.Request{Source: r.Source, Eps: r.Eps, Opt: o}
	}
	sts, err := batch.Build(g.g, breqs, bo)
	if err != nil {
		return nil, err
	}
	out := make([]*Structure, len(sts))
	for i, st := range sts {
		out[i] = newStructure(st)
	}
	return out, nil
}
