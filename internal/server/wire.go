package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"ftbfs"
	"ftbfs/internal/core"
	"ftbfs/internal/store"
	"ftbfs/internal/telemetry"
	"ftbfs/internal/wire"
)

// This file is the one place HTTP meets the binary protocol. The conversions
// turn a QueryRequest, a BatchQueryRequest slot or a MutateRequest into wire
// form — defaults resolved, fields the wire cannot carry refused — and both
// the cluster router and this server's own HTTP handlers use them. The
// dispatch below (point, batch, mutate) answers wire-form requests through
// the store and pooled oracles, and both the HTTP handlers and the
// wire.Backend methods call it: a query answers identically whichever
// transport it arrived on and whichever tier received it, by construction.

// narrower narrows request fields to the wire's 32-bit slots, remembering the
// first field that would truncate: a value the wire cannot carry is refused,
// never answered for whatever vertex its low 32 bits name.
type narrower struct{ err error }

func (n *narrower) int32(name string, x int) int32 {
	if n.err == nil && (x < math.MinInt32 || x > math.MaxInt32) {
		n.err = fmt.Errorf("%s %d out of range", name, x)
	}
	return int32(x)
}

// pointFor frames key k plus target v as a wire point query with no failure.
func pointFor(k store.Key, v int, n *narrower) wire.PointQuery {
	return wire.PointQuery{
		FP:      k.Graph,
		EpsBits: math.Float64bits(k.Eps),
		Source:  n.int32("source", k.Source),
		Alg:     int32(k.Alg),
		V:       n.int32("vertex", v),
		A:       -1,
		B:       -1,
	}
}

// Wire converts a query to the given point endpoint into its wire frame
// type and payload, plus the registry key it addresses (what the router
// routes on). The endpoint, not a stray request field, picks the failure
// model. Errors are the endpoint's 400s.
func (q *QueryRequest) Wire(path string) (store.Key, byte, wire.PointQuery, error) {
	typ := wire.TDist
	switch path {
	case "/dist-avoiding":
		typ = wire.TDistAvoiding
	case "/dist-avoiding-vertex":
		typ = wire.TDistAvoidingVertex
	}
	switch {
	case q.V == nil:
		return store.Key{}, typ, wire.PointQuery{}, errors.New("missing target vertex v")
	case typ == wire.TDistAvoiding && q.Fail == nil:
		return store.Key{}, typ, wire.PointQuery{}, errors.New("missing failed edge (fail=[u,v] or fu=&fv=)")
	case typ == wire.TDistAvoidingVertex && q.FailedVertex == nil:
		return store.Key{}, typ, wire.PointQuery{}, errors.New("missing failed vertex (failedVertex or fw=)")
	}
	var k store.Key
	var err error
	if typ == wire.TDistAvoidingVertex {
		k, err = q.VertexKey()
	} else {
		k, err = q.EdgeKey()
	}
	if err != nil {
		return k, typ, wire.PointQuery{}, err
	}
	var n narrower
	pq := pointFor(k, *q.V, &n)
	switch typ {
	case wire.TDistAvoiding:
		pq.A, pq.B = n.int32("failed edge endpoint", q.Fail[0]), n.int32("failed edge endpoint", q.Fail[1])
	case wire.TDistAvoidingVertex:
		pq.A = n.int32("failed vertex", *q.FailedVertex)
	}
	return k, typ, pq, n.err
}

// WireSlot converts query i of the vector into a wire batch slot plus the
// registry key it addresses. Errors are the slot's per-query error.
func (req *BatchQueryRequest) WireSlot(i int) (store.Key, wire.BatchSlot, error) {
	k, err := req.KeyFor(i)
	if err != nil {
		return k, wire.BatchSlot{}, err
	}
	q := &req.Queries[i]
	var n narrower
	slot := wire.BatchSlot{PointQuery: pointFor(k, q.V, &n)}
	if k.Model == store.ModelVertex {
		// KeyFor only derives a vertex-model key from a slot carrying
		// failedVertex, so the deref is safe.
		slot.Vertex = true
		slot.A = n.int32("failed vertex", *q.FailedVertex)
	} else {
		slot.A, slot.B = n.int32("failed edge endpoint", q.Fail[0]), n.int32("failed edge endpoint", q.Fail[1])
	}
	return k, slot, n.err
}

// Wire validates the mutation request and converts it into the graph's
// lineage plus the batch in wire form. A malformed batch is refused whole,
// before any shard does work.
func (req *MutateRequest) Wire() (uint64, []wire.MutationWire, error) {
	lineage, err := strconv.ParseUint(req.Graph, 16, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("bad graph fingerprint %q", req.Graph)
	}
	if len(req.Mutations) == 0 {
		return 0, nil, errors.New("empty mutation batch")
	}
	muts := make([]wire.MutationWire, len(req.Mutations))
	var n narrower
	for i, m := range req.Mutations {
		var op ftbfs.MutationOp
		switch m.Op {
		case "insert":
			op = ftbfs.MutInsert
		case "delete":
			op = ftbfs.MutDelete
		default:
			return 0, nil, fmt.Errorf(`mutation %d: op %q is not "insert" or "delete"`, i, m.Op)
		}
		muts[i] = wire.MutationWire{Op: uint8(op), U: n.int32("mutation endpoint", m.U), V: n.int32("mutation endpoint", m.V)}
	}
	if n.err != nil {
		return 0, nil, n.err
	}
	return lineage, muts, nil
}

// MutateResponseFrom renders a shard's wire mutation result as the /mutate
// JSON reply.
func MutateResponseFrom(res wire.MutateResult) MutateResponse {
	return MutateResponse{
		Graph:         fmt.Sprintf("%016x", res.Lineage),
		Gen:           res.Gen,
		Fingerprint:   fmt.Sprintf("%016x", res.FP),
		RebuildsDelta: int(res.RebuildsDelta),
		RebuildsFull:  int(res.RebuildsFull),
	}
}

// keyForPoint resolves the registry key a wire point query addresses,
// mirroring resolveKey/resolveVertexModelKey (which parse the same fields
// out of JSON): -0 ε folds to +0, non-finite ε and out-of-range algorithms
// are rejected before they can poison a store key.
func keyForPoint(typ byte, q *wire.PointQuery) (store.Key, error) {
	if typ == wire.TDistAvoidingVertex {
		return store.VertexKey(q.FP, int(q.Source)), nil
	}
	e := q.Eps()
	if math.IsNaN(e) || math.IsInf(e, 0) {
		return store.Key{}, fmt.Errorf("eps must be finite, got %v", e)
	}
	if e == 0 {
		e = 0 // fold IEEE -0 into +0, matching resolveKey
	}
	if q.Alg < 0 || q.Alg > int32(core.Greedy) {
		return store.Key{}, fmt.Errorf("unknown algorithm code %d", q.Alg)
	}
	return store.Key{Graph: q.FP, Source: int(q.Source), Eps: e, Alg: ftbfs.Algorithm(q.Alg)}, nil
}

// shedWire passes a wire request through the same load shedder as the HTTP
// handlers. It returns a non-nil in-protocol error when the request is shed
// (503, mirroring HTTP's Retry-After semantics) or its budget ran out while
// queued (504); otherwise the caller owns a work slot and must release it.
func (s *Server) shedWire(ctx context.Context) (*limiter, *wire.Error) {
	work := s.work.Load()
	if !work.acquire(ctx, s.draining.Load()) {
		s.m.errs.Inc()
		if ctx.Err() != nil {
			return nil, &wire.Error{Code: http.StatusGatewayTimeout, Msg: "deadline budget exhausted while queued"}
		}
		s.m.shed.Inc()
		return nil, &wire.Error{Code: http.StatusServiceUnavailable, Msg: "server overloaded; retry later"}
	}
	return work, nil
}

// observeWire records one finished wire request into its frame type's
// outcome-labeled histogram. Inline starts and a direct array index keep the
// point-query path allocation-free.
func (s *Server) observeWire(typ byte, start time.Time, werr *wire.Error) {
	if int(typ) >= len(s.m.wireByType) {
		return
	}
	out := telemetry.OutcomeOK
	if werr != nil {
		out = telemetry.OutcomeOf(werr.Code)
	}
	s.m.wireByType[typ].Observe(time.Since(start), out)
}

// traceWire files a traced wire request: a shard.wire span, which travels
// back to the caller in the response frame, and a record in this shard's
// own /debug/traces ring.
func (s *Server) traceWire(ctx context.Context, start time.Time) {
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		tr.Add("shard.wire", start)
		s.traces.Record(tr, "wire", time.Since(start))
	}
}

// WirePoint answers one binary point query (wire.Backend). It wraps the
// dispatch so the latency observation needs no deferred closure — the point
// path must stay allocation-free.
func (s *Server) WirePoint(ctx context.Context, typ byte, q *wire.PointQuery) (int32, *wire.Error) {
	s.m.wireRequests.Inc()
	start := time.Now()
	d, werr := s.wirePoint(ctx, typ, q)
	s.observeWire(typ, start, werr)
	s.traceWire(ctx, start)
	return d, werr
}

func (s *Server) wirePoint(ctx context.Context, typ byte, q *wire.PointQuery) (int32, *wire.Error) {
	work, werr := s.shedWire(ctx)
	if werr != nil {
		return 0, werr
	}
	defer work.release()
	return s.point(ctx, typ, q)
}

// point answers one wire-form point query: the dispatch behind both
// WirePoint and the HTTP point endpoints.
func (s *Server) point(ctx context.Context, typ byte, q *wire.PointQuery) (int32, *wire.Error) {
	k, err := keyForPoint(typ, q)
	if err != nil {
		s.m.errs.Inc()
		return 0, &wire.Error{Code: http.StatusBadRequest, Msg: err.Error()}
	}
	v := int(q.V)
	var d int
	switch typ {
	case wire.TDist:
		st, err := s.structureForKey(ctx, k, &v)
		if err != nil {
			s.m.errs.Inc()
			return 0, &wire.Error{Code: statusFor(err), Msg: err.Error()}
		}
		// Intact distances come from the structure's shared cached vector —
		// no oracle (and no BFS scratch allocation) needed.
		d = st.Dist(v)
	case wire.TDistAvoiding:
		st, err := s.structureForKey(ctx, k, &v)
		if err != nil {
			s.m.errs.Inc()
			return 0, &wire.Error{Code: statusFor(err), Msg: err.Error()}
		}
		// DistAvoiding runs against the structure's QueryPlan: O(1) for
		// non-tree-edge failures, subtree-local repair otherwise.
		err = st.OraclePool().Do(func(o *ftbfs.Oracle) error {
			var qerr error
			d, qerr = o.DistAvoiding(v, int(q.A), int(q.B))
			return qerr
		})
		if err != nil {
			s.m.errs.Inc()
			return 0, &wire.Error{Code: http.StatusBadRequest, Msg: err.Error()}
		}
	case wire.TDistAvoidingVertex:
		st, err := s.vertexStructureForKey(ctx, k, &v)
		if err != nil {
			s.m.errs.Inc()
			return 0, &wire.Error{Code: statusFor(err), Msg: err.Error()}
		}
		// DistAvoidingVertex runs against the structure's VertexQueryPlan:
		// O(1) for off-tree-path failures, subtree-local repair otherwise.
		err = st.OraclePool().Do(func(o *ftbfs.VertexOracle) error {
			var qerr error
			d, qerr = o.DistAvoidingVertex(v, int(q.A))
			return qerr
		})
		if err != nil {
			s.m.errs.Inc()
			return 0, &wire.Error{Code: http.StatusBadRequest, Msg: err.Error()}
		}
	default:
		s.m.errs.Inc()
		return 0, &wire.Error{Code: http.StatusBadRequest, Msg: fmt.Sprintf("unknown point type %#x", typ)}
	}
	s.m.queries.Inc()
	return int32(d), nil
}

// WireMutate applies one binary mutation batch (wire.Backend).
func (s *Server) WireMutate(ctx context.Context, lineage uint64, wmuts []wire.MutationWire) (wire.MutateResult, *wire.Error) {
	s.m.wireRequests.Inc()
	start := time.Now()
	res, werr := s.wireMutate(ctx, lineage, wmuts)
	s.observeWire(wire.TMutate, start, werr)
	s.traceWire(ctx, start)
	return res, werr
}

func (s *Server) wireMutate(ctx context.Context, lineage uint64, wmuts []wire.MutationWire) (wire.MutateResult, *wire.Error) {
	work, werr := s.shedWire(ctx)
	if werr != nil {
		return wire.MutateResult{}, werr
	}
	defer work.release()
	return s.mutate(ctx, lineage, wmuts)
}

// mutate applies one wire-form mutation batch through store.Mutate: the
// dispatch behind both WireMutate and POST /mutate.
func (s *Server) mutate(ctx context.Context, lineage uint64, wmuts []wire.MutationWire) (wire.MutateResult, *wire.Error) {
	if _, ok := s.store.Graph(lineage); !ok {
		// 404, not 400: on a cluster shard the graph may not have reached
		// this replica, and the router treats 404 as tolerable shard state.
		s.m.errs.Inc()
		err := &UnknownGraphError{Fingerprint: lineage}
		return wire.MutateResult{}, &wire.Error{Code: statusFor(err), Msg: err.Error()}
	}
	muts := make([]ftbfs.Mutation, len(wmuts))
	for i, m := range wmuts {
		// The wire parser already rejected ops outside {0, 1}; the numbering
		// matches ftbfs.MutInsert/MutDelete by design.
		muts[i] = ftbfs.Mutation{Op: ftbfs.MutationOp(m.Op), U: int(m.U), V: int(m.V)}
	}
	res, err := s.store.Mutate(ctx, lineage, muts)
	if err != nil {
		s.m.errs.Inc()
		return wire.MutateResult{}, &wire.Error{Code: statusFor(err), Msg: err.Error()}
	}
	return wire.MutateResult{
		Lineage:       res.Lineage,
		Gen:           res.Gen,
		FP:            res.Fingerprint,
		RebuildsDelta: uint32(res.RebuildsDelta),
		RebuildsFull:  uint32(res.RebuildsFull),
	}, nil
}

// WireBatch answers one binary batch (wire.Backend) through the same batch
// dispatch as POST /batch-query.
func (s *Server) WireBatch(ctx context.Context, slots []wire.BatchSlot) ([]int32, []string) {
	s.m.wireRequests.Inc()
	start := time.Now()
	dists := make([]int, len(slots))
	errs := make([]string, len(slots))
	work, werr := s.shedWire(ctx)
	if werr != nil {
		// A shed batch fails every slot with the shed message; the router's
		// per-slot retry machinery then redistributes them.
		for i := range slots {
			dists[i] = ftbfs.Unreachable
			errs[i] = werr.Msg
		}
	} else {
		s.batch(ctx, slots, dists, errs)
		work.release()
		for _, e := range errs {
			if e != "" {
				s.m.errs.Inc()
				werr = &wire.Error{Code: http.StatusBadRequest}
			}
		}
	}
	out := make([]int32, len(dists))
	for i, d := range dists {
		out[i] = int32(d)
	}
	s.observeWire(wire.TBatch, start, werr)
	s.traceWire(ctx, start)
	return out, errs
}

// batch answers a wire-form batch into dists/errs (parallel to slots),
// skipping slots whose errs entry is already set: slots group by resolved
// key, preserving first-seen order, and funnel into answerGroups. A slot
// with an unresolvable address errors alone. The dispatch behind both
// WireBatch and POST /batch-query.
func (s *Server) batch(ctx context.Context, slots []wire.BatchSlot, dists []int, errs []string) {
	var groups []*queryGroup
	byKey := make(map[store.Key]*queryGroup)
	for i := range slots {
		if errs[i] != "" {
			continue
		}
		sl := &slots[i]
		typ := byte(wire.TDistAvoiding)
		if sl.Vertex {
			typ = wire.TDistAvoidingVertex
		}
		k, err := keyForPoint(typ, &sl.PointQuery)
		if err != nil {
			dists[i] = ftbfs.Unreachable
			errs[i] = err.Error()
			continue
		}
		gr := byKey[k]
		if gr == nil {
			gr = &queryGroup{key: k}
			byKey[k] = gr
			groups = append(groups, gr)
		}
		gr.slots = append(gr.slots, i)
		if sl.Vertex {
			gr.vqueries = append(gr.vqueries, ftbfs.VertexFailureQuery{V: int(sl.V), Failed: int(sl.A)})
		} else {
			gr.queries = append(gr.queries, ftbfs.FailureQuery{V: int(sl.V), FailedU: int(sl.A), FailedV: int(sl.B)})
		}
	}
	s.m.queries.Add(s.answerGroups(ctx, groups, dists, errs))
}
