package ftbfs

import (
	"fmt"
	"slices"

	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
)

// Oracle answers distance queries inside a structure under simulated single
// failures — the operational view of the FT-BFS guarantee. One Oracle serves
// both failure models behind thin entry points: an edge structure's oracle
// answers failed edges (DistAvoiding and its Ref, Baseline, Many and Each
// forms), a vertex structure's oracle failed vertices (the
// DistAvoidingVertex forms), and each refuses the other model's failures
// with an error, as it refuses a reinforced edge. Every form checks the
// target and the failure, then answers through the structure's QueryPlan: a
// failure off the target's tree path is an O(1) lookup of the cached intact
// vector, a tree failure repairs only the subtree it can change. The Ref
// forms keep the full-BFS search inside H as the reference implementation,
// and the Baseline forms measure G itself.
// An Oracle is not safe for concurrent use; create one per goroutine or
// check oracles out of an OraclePool.
type Oracle struct {
	st      *serving
	plan    *QueryPlan
	scratch *bfs.Scratch     // Ref and Baseline searches
	dist    []int32          // Ref and Baseline searches
	banned  *graph.VertexSet // Ref and Baseline vertex bans, made on first use

	// Subtree-repair state: the scratch is allocated on the first tree
	// failure and then recycled (pooled oracles carry it across requests);
	// repaired names the failure whose repair it currently holds, so
	// repeated failures of one edge or vertex — including a whole grouped
	// batch — answer from a single repair run.
	repair   *bfs.Repair
	repaired failure

	// Many/Each scratch, reused across batches.
	batch []staged
	ord   []int32

	// Plan-path accounting, plain counters because an oracle is
	// single-goroutine by contract; OraclePool.Put folds them into the
	// process-wide telemetry totals so the 30 ns query path never pays an
	// atomic op.
	planHits, planRepairs uint64
}

// VertexOracle is the name the vertex model's oracle was introduced under;
// both models share one Oracle.
type VertexOracle = Oracle

// Unreachable is returned by distance queries for unreachable vertices.
const Unreachable = int(bfs.Unreachable)

// Dist returns dist(source, v) inside the intact structure H; it reads the
// structure's shared cached vector, so repeated calls are O(1) lookups.
func (o *Oracle) Dist(v int) int { return o.st.Dist(v) }

// check is the one validation of both models: the target first, then ferr,
// the failure's own validation error. It inlines into every query path; the
// error text is built out of line.
func (o *Oracle) check(v int, ferr error) error {
	if uint(v) >= uint(len(o.dist)) { // dist holds one slot per vertex
		return targetError(v, len(o.dist))
	}
	return ferr
}

//go:noinline
func targetError(v, n int) error {
	return fmt.Errorf("ftbfs: vertex %d out of range [0,%d)", v, n)
}

// edgeFailure validates a failed edge for simulation: the structure must
// tolerate edge failures, the edge must exist in the base graph and — unless
// inG, where the Baseline forms measure G itself — must not be reinforced
// (reinforced edges cannot fail by contract).
func (o *Oracle) edgeFailure(u, v int, inG bool) (failure, error) {
	if o.st.model != edgeModel {
		return noFailure, fmt.Errorf("ftbfs: a vertex-failure structure cannot fail edge {%d,%d}", u, v)
	}
	id := o.st.g.EdgeIDOf(u, v)
	if id == graph.NoEdge {
		return noFailure, fmt.Errorf("ftbfs: {%d,%d} is not an edge of the base graph", u, v)
	}
	if !inG && o.st.reinforced.Contains(id) {
		return noFailure, fmt.Errorf("ftbfs: {%d,%d} is reinforced and cannot fail", u, v)
	}
	return failure{id: id, vertex: -1}, nil
}

// vertexFailure validates a failed vertex for simulation: the structure must
// tolerate vertex failures, the vertex must exist and must not be the source
// (the source cannot fail by contract — there is no meaningful dist(s, ·)
// without s).
func (o *Oracle) vertexFailure(w int) (failure, error) {
	if o.st.model != vertexModel {
		return noFailure, fmt.Errorf("ftbfs: an edge-failure structure cannot fail vertex %d", w)
	}
	if n := o.st.g.N(); w < 0 || w >= n {
		return noFailure, fmt.Errorf("ftbfs: failed vertex %d out of range [0,%d)", w, n)
	}
	if w == o.st.src {
		return noFailure, fmt.Errorf("ftbfs: the source %d cannot fail", w)
	}
	return failure{id: graph.NoEdge, vertex: int32(w)}, nil
}

// planDist answers one validated failure query through the query plan,
// keeping the oracle's repair scratch in sync. A target that is itself the
// failed vertex left the graph: Unreachable, matching the restricted-BFS
// reference.
func (o *Oracle) planDist(v int, f failure) int32 {
	if int32(v) == f.vertex {
		return bfs.Unreachable
	}
	if o.repair == nil {
		o.repair = bfs.NewRepair(o.st.g.N())
	}
	d, repaired, viaRepair := o.plan.dist(v, f, o.repair, o.repaired)
	o.repaired = repaired
	if viaRepair {
		o.planRepairs++
	} else {
		o.planHits++
	}
	return d
}

// search answers dist(source, v) by a full restricted BFS over the base
// graph with f banned, confined to the edges of allowed unless it is nil:
// H for the Ref forms, all of G for the Baseline forms.
func (o *Oracle) search(v int, f failure, allowed *graph.EdgeSet) int {
	r := bfs.Restriction{BannedEdge: f.id, AllowedEdges: allowed}
	if f.vertex >= 0 {
		if o.banned == nil {
			o.banned = graph.NewVertexSet(o.st.g.N())
		}
		o.banned.Clear()
		o.banned.Add(f.vertex)
		r.BannedVertices = o.banned
	}
	o.scratch.DistancesAvoiding(o.st.g, o.st.src, r, o.dist)
	return int(o.dist[v])
}

// DistAvoiding returns dist(source, v) in H \ {failedU, failedV}. Failing a
// reinforced edge is rejected — reinforced edges cannot fail by contract.
//
// The answer comes from the structure's QueryPlan: O(1) when the failed
// edge is not a tree edge of H's BFS tree (the intact distances survive),
// and a subtree-local repair search otherwise. It always equals what the
// full-search DistAvoidingRef returns.
func (o *Oracle) DistAvoiding(v, failedU, failedV int) (int, error) {
	f, err := o.edgeFailure(failedU, failedV, false)
	if err = o.check(v, err); err != nil {
		return 0, err
	}
	return int(o.planDist(v, f)), nil
}

// DistAvoidingRef is the reference implementation of DistAvoiding: a full
// restricted BFS over the base graph, rejecting non-H arcs one by one. It
// is what the plan-backed fast path is differential-tested against; prefer
// DistAvoiding everywhere else.
func (o *Oracle) DistAvoidingRef(v, failedU, failedV int) (int, error) {
	f, err := o.edgeFailure(failedU, failedV, false)
	if err = o.check(v, err); err != nil {
		return 0, err
	}
	return o.search(v, f, o.st.h), nil
}

// BaselineDistAvoiding returns dist(source, v) in the full graph G minus
// the failed edge — the yardstick the FT-BFS contract compares against.
func (o *Oracle) BaselineDistAvoiding(v, failedU, failedV int) (int, error) {
	f, err := o.edgeFailure(failedU, failedV, true)
	if err = o.check(v, err); err != nil {
		return 0, err
	}
	return o.search(v, f, nil), nil
}

// DistAvoidingVertex returns dist(source, v) in H \ {w}. Failing the source
// is rejected; querying the failed vertex itself answers Unreachable.
//
// The answer comes from the structure's QueryPlan: O(1) when w is off the
// target's tree path in H's BFS tree (the intact distances survive), and a
// subtree-local repair search otherwise. It always equals what the
// full-search DistAvoidingVertexRef returns.
func (o *Oracle) DistAvoidingVertex(v, w int) (int, error) {
	f, err := o.vertexFailure(w)
	if err = o.check(v, err); err != nil {
		return 0, err
	}
	return int(o.planDist(v, f)), nil
}

// DistAvoidingVertexRef is the reference implementation of
// DistAvoidingVertex: a full restricted BFS over the base graph with w
// banned, rejecting non-H arcs one by one.
func (o *Oracle) DistAvoidingVertexRef(v, w int) (int, error) {
	f, err := o.vertexFailure(w)
	if err = o.check(v, err); err != nil {
		return 0, err
	}
	return o.search(v, f, o.st.h), nil
}

// BaselineDistAvoidingVertex returns dist(source, v) in the full graph G
// minus the failed vertex — the yardstick the vertex FT-BFS contract
// compares against.
func (o *Oracle) BaselineDistAvoidingVertex(v, w int) (int, error) {
	f, err := o.vertexFailure(w)
	if err = o.check(v, err); err != nil {
		return 0, err
	}
	return o.search(v, f, nil), nil
}

// FailureQuery is one entry of a DistAvoidingMany batch: the target vertex
// and the endpoints of the simulated failed edge.
type FailureQuery struct {
	V       int
	FailedU int
	FailedV int
}

// VertexFailureQuery is one entry of a DistAvoidingVertexMany batch: the
// target vertex and the simulated failed vertex.
type VertexFailureQuery struct {
	V      int
	Failed int
}

// failureQuery is a batch entry of either model.
type failureQuery interface {
	FailureQuery | VertexFailureQuery
	// resolve returns the entry's target and its failure validated by o.
	resolve(o *Oracle) (int, failure, error)
}

func (q FailureQuery) resolve(o *Oracle) (int, failure, error) {
	f, err := o.edgeFailure(q.FailedU, q.FailedV, false)
	return q.V, f, err
}

func (q VertexFailureQuery) resolve(o *Oracle) (int, failure, error) {
	f, err := o.vertexFailure(q.Failed)
	return q.V, f, err
}

// staged is one validated batch entry awaiting its grouped answer.
type staged struct {
	v int
	f failure
}

// DistAvoidingMany answers a vector of (target, failed-edge) queries.
// The whole batch is validated up front — an invalid query (out-of-range
// target, non-edge, or reinforced edge) fails the call before any result is
// published, so out is never left partially written. Valid batches are then
// answered in failed-edge groups: queries failing the same tree edge share
// one subtree repair, and non-tree-edge failures are O(1) lookups. Results
// land in out (allocated when nil) in query order; each equals what
// DistAvoiding returns for that query.
func (o *Oracle) DistAvoidingMany(queries []FailureQuery, out []int) ([]int, error) {
	return many(o, "DistAvoidingMany", queries, out)
}

// DistAvoidingEach answers a vector of (target, failed-edge) queries with
// per-query error slots: an invalid query (out-of-range target, non-edge, or
// reinforced edge) fills errs[i] and leaves out[i] at Unreachable instead of
// failing the whole batch — the partial-result contract a scatter-gather
// router needs. Valid queries are still answered in failed-edge groups
// exactly as in DistAvoidingMany. out and errs are allocated when nil or
// mis-sized; both are returned.
func (o *Oracle) DistAvoidingEach(queries []FailureQuery, out []int, errs []error) ([]int, []error) {
	return each(o, queries, out, errs)
}

// DistAvoidingVertexMany is DistAvoidingMany for (target, failed-vertex)
// queries: validated up front, answered grouped by failed vertex, each
// result equal to what DistAvoidingVertex returns.
func (o *Oracle) DistAvoidingVertexMany(queries []VertexFailureQuery, out []int) ([]int, error) {
	return many(o, "DistAvoidingVertexMany", queries, out)
}

// DistAvoidingVertexEach is DistAvoidingEach for (target, failed-vertex)
// queries: per-query error slots, valid queries answered grouped by failed
// vertex.
func (o *Oracle) DistAvoidingVertexEach(queries []VertexFailureQuery, out []int, errs []error) ([]int, []error) {
	return each(o, queries, out, errs)
}

// many sizes out and answers the batch under the all-or-nothing contract.
func many[Q failureQuery](o *Oracle, name string, queries []Q, out []int) ([]int, error) {
	if out == nil {
		out = make([]int, len(queries))
	}
	if len(out) != len(queries) {
		return nil, fmt.Errorf("ftbfs: %s: out has %d slots for %d queries", name, len(out), len(queries))
	}
	if err := grouped(o, queries, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// each sizes out and errs and answers the batch with per-query error slots.
func each[Q failureQuery](o *Oracle, queries []Q, out []int, errs []error) ([]int, []error) {
	if len(out) != len(queries) {
		out = make([]int, len(queries))
	}
	if len(errs) != len(queries) {
		errs = make([]error, len(queries))
	}
	grouped(o, queries, out, errs)
	return out, errs
}

// grouped is the one batch path of both models. It validates every query —
// the target first, then the failure — into the oracle's recycled buffers,
// then answers the valid ones in failure order: each failed tree edge or
// tree vertex is repaired exactly once and serves all its targets (planDist
// reuses the scratch while the failure repeats), and off-path failures are
// O(1) lookups. The sort runs on recycled index buffers, so steady-state
// batches allocate nothing. With errs nil the first invalid query fails the
// call before out is written; otherwise it fills its errs slot and leaves
// its out slot at Unreachable.
func grouped[Q failureQuery](o *Oracle, queries []Q, out []int, errs []error) error {
	o.batch, o.ord = o.batch[:0], o.ord[:0]
	for i, q := range queries {
		v, f, err := q.resolve(o)
		err = o.check(v, err)
		o.batch = append(o.batch, staged{v: v, f: f})
		if errs != nil {
			out[i], errs[i] = Unreachable, err
		}
		if err == nil {
			o.ord = append(o.ord, int32(i))
		} else if errs == nil {
			return fmt.Errorf("ftbfs: query %d: %w", i, err)
		}
	}
	slices.SortFunc(o.ord, func(a, b int32) int {
		fa, fb := o.batch[a].f, o.batch[b].f
		if fa.id != fb.id {
			return int(fa.id) - int(fb.id)
		}
		return int(fa.vertex) - int(fb.vertex)
	})
	for _, i := range o.ord {
		out[i] = int(o.planDist(o.batch[i].v, o.batch[i].f))
	}
	return nil
}
