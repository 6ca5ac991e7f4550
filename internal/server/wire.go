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
// turn a QueryRequest, a BatchQueryRequest vector or a MutateRequest into wire
// form — defaults resolved, fields the wire cannot carry refused — for the
// Edge of either tier. The dispatch below (Point, Batch, Mutate) is the
// shard's Backend: it answers wire-form requests through the store and
// pooled oracles, for the Edge and the wire.Backend methods alike, so a
// query answers identically whichever transport it arrived on and whichever
// tier received it, by construction.

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

// Wire converts the vector into wire batch slots plus the registry key each
// addresses (what the cluster router routes on); errs holds each slot's
// per-query error, "" when it converted. It is the reference for
// DecodeBatchQuery's scanner, which frames each slot through the same
// addrKey and frameSlot.
func (req *BatchQueryRequest) Wire() (keys []store.Key, slots []wire.BatchSlot, errs []string) {
	keys = make([]store.Key, len(req.Queries))
	slots = make([]wire.BatchSlot, len(req.Queries))
	errs = make([]string, len(req.Queries))
	// Slots naming no graph of their own share the request's: parse it once.
	defFP, defErr := parseGraph(req.Graph)
	for i := range req.Queries {
		q := &req.Queries[i]
		var err error
		keys[i], err = req.keyFor(i, defFP, defErr)
		fv := 0
		if q.FailedVertex != nil {
			fv = *q.FailedVertex
		}
		errs[i] = frameSlot(&slots[i], &keys[i], err, q.V, q.Fail, fv)
	}
	return keys, slots, errs
}

// frameSlot frames one vector slot into sl on key k: target v and the
// failed edge fail, or the failed vertex fv when k is a vertex key. It
// returns the slot's error: kerr, the key's, else the first field the wire
// cannot carry.
func frameSlot(sl *wire.BatchSlot, k *store.Key, kerr error, v int, fail [2]int, fv int) string {
	var n narrower
	sl.PointQuery = pointFor(*k, v, &n)
	if k.Model == core.ModelVertex {
		sl.Vertex = true
		sl.A = n.int32("failed vertex", fv)
	} else {
		sl.A, sl.B = n.int32("failed edge endpoint", fail[0]), n.int32("failed edge endpoint", fail[1])
	}
	switch {
	case kerr != nil:
		return kerr.Error()
	case n.err != nil:
		return n.err.Error()
	}
	return ""
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

// sameAddress reports whether two slots address one structure by the same
// wire fields, so they resolve to one key.
func sameAddress(a, b *wire.BatchSlot) bool {
	return a.FP == b.FP && a.EpsBits == b.EpsBits && a.Source == b.Source && a.Alg == b.Alg && a.Vertex == b.Vertex
}

// keyForPoint resolves the registry key a wire point query addresses
// through the validators the JSON addresses use (edgeKey, store.VertexKey).
func keyForPoint(typ byte, q *wire.PointQuery) (store.Key, error) {
	if typ == wire.TDistAvoidingVertex {
		return store.VertexKey(q.FP, int(q.Source)), nil
	}
	return edgeKey(q.FP, int(q.Source), q.Eps(), int(q.Alg))
}

// finishWire files one answered wire request: its latency under its frame
// type's outcome-labeled histogram (inline starts and a direct array index
// keep the point path allocation-free) and, when traced, a shard.wire span,
// which travels back to the caller in the response frame, plus a record in
// this shard's own /debug/traces ring.
func (s *Server) finishWire(ctx context.Context, typ byte, start time.Time, werr *wire.Error) {
	if int(typ) < len(s.m.wireByType) {
		out := telemetry.OutcomeOK
		if werr != nil {
			out = telemetry.OutcomeOf(werr.Code)
		}
		s.m.wireByType[typ].Observe(time.Since(start), out)
	}
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		tr.Add("shard.wire", start)
		s.edge.traces.Record(tr, "wire", time.Since(start))
	}
}

// WirePoint answers one binary point query (wire.Backend). It wraps the
// dispatch so the latency observation needs no deferred closure — the point
// path must stay allocation-free.
func (s *Server) WirePoint(ctx context.Context, typ byte, q *wire.PointQuery) (int32, *wire.Error) {
	s.m.wireRequests.Inc()
	start := time.Now()
	d, werr := s.wirePoint(ctx, typ, q)
	if werr != nil {
		s.m.errs.Inc()
	}
	s.finishWire(ctx, typ, start, werr)
	return d, werr
}

func (s *Server) wirePoint(ctx context.Context, typ byte, q *wire.PointQuery) (int32, *wire.Error) {
	work, werr := s.admit(ctx)
	if werr != nil {
		return 0, werr
	}
	defer work.release()
	k, err := keyForPoint(typ, q)
	if err != nil {
		return 0, &wire.Error{Code: http.StatusBadRequest, Msg: err.Error()}
	}
	return s.Point(ctx, k, typ, *q)
}

// Point answers one point query addressing key k (Backend): the dispatch
// behind WirePoint and the HTTP point endpoints. Its callers pass the load
// shedder.
func (s *Server) Point(ctx context.Context, k store.Key, typ byte, q wire.PointQuery) (int32, *wire.Error) {
	if typ != wire.TDist && typ != wire.TDistAvoiding && typ != wire.TDistAvoidingVertex {
		return 0, refusal(fmt.Errorf("unknown point type %#x", typ))
	}
	v := int(q.V)
	var d int
	pool, err := s.poolForKey(ctx, k, &v)
	if err == nil {
		// Intact distances read the structure's shared cached vector; failure
		// queries run against its QueryPlan: O(1) for failures off the
		// target's tree path, subtree-local repair otherwise.
		err = pool.Do(func(o *ftbfs.Oracle) error {
			var qerr error
			switch typ {
			case wire.TDist:
				d = o.Dist(v)
			case wire.TDistAvoiding:
				d, qerr = o.DistAvoiding(v, int(q.A), int(q.B))
			default:
				d, qerr = o.DistAvoidingVertex(v, int(q.A))
			}
			return qerr
		})
	}
	if err != nil {
		return 0, refusal(err)
	}
	s.m.queries.Inc()
	return int32(d), nil
}

// WireMutate applies one binary mutation batch (wire.Backend).
func (s *Server) WireMutate(ctx context.Context, lineage uint64, wmuts []wire.MutationWire) (wire.MutateResult, *wire.Error) {
	s.m.wireRequests.Inc()
	start := time.Now()
	res, werr := s.wireMutate(ctx, lineage, wmuts)
	if werr != nil {
		s.m.errs.Inc()
	}
	s.finishWire(ctx, wire.TMutate, start, werr)
	return res, werr
}

func (s *Server) wireMutate(ctx context.Context, lineage uint64, wmuts []wire.MutationWire) (wire.MutateResult, *wire.Error) {
	work, werr := s.admit(ctx)
	if werr != nil {
		return wire.MutateResult{}, werr
	}
	defer work.release()
	return s.Mutate(ctx, lineage, wmuts)
}

// Mutate applies one wire-form mutation batch through store.Mutate
// (Backend): the dispatch behind WireMutate and POST /mutate. The store
// rebuilds resident structures against the new generation while the old one
// keeps serving, then swaps atomically.
func (s *Server) Mutate(ctx context.Context, lineage uint64, wmuts []wire.MutationWire) (wire.MutateResult, *wire.Error) {
	if _, ok := s.store.Graph(lineage); !ok {
		// 404, not 400: on a cluster shard the graph may not have reached
		// this replica, and the router treats 404 as tolerable shard state.
		return wire.MutateResult{}, refusal(&UnknownGraphError{Fingerprint: lineage})
	}
	muts := make([]ftbfs.Mutation, len(wmuts))
	for i, m := range wmuts {
		// The wire parser already rejected ops outside {0, 1}; the numbering
		// matches ftbfs.MutInsert/MutDelete by design.
		muts[i] = ftbfs.Mutation{Op: ftbfs.MutationOp(m.Op), U: int(m.U), V: int(m.V)}
	}
	res, err := s.store.Mutate(ctx, lineage, muts)
	if err != nil {
		return wire.MutateResult{}, refusal(err)
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
	work, werr := s.admit(ctx)
	if werr != nil {
		// A shed batch fails every slot with the shed message; the router's
		// per-slot retry machinery then redistributes them.
		s.m.errs.Inc()
		for i := range slots {
			dists[i] = ftbfs.Unreachable
			errs[i] = werr.Msg
		}
	} else {
		s.Batch(ctx, nil, slots, dists, errs)
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
	s.finishWire(ctx, wire.TBatch, start, werr)
	return out, errs
}

// Batch answers a wire-form batch into dists/errs (Backend), answering -1
// for slots whose errs entry is already set: slots group by the key each
// resolves to — keys is not consulted, so both transports group alike — and
// funnel into answerGroups. The dispatch behind WireBatch and POST
// /batch-query.
func (s *Server) Batch(ctx context.Context, _ []store.Key, slots []wire.BatchSlot, dists []int, errs []string) {
	s.m.queries.Add(s.answerGroups(ctx, groupSlots(slots, dists, errs), dists, errs))
}

// groupSlots groups a batch's slots by resolved key, preserving first-seen
// order; a slot with an unresolvable address errors alone. It takes two
// passes — number the groups and count their slots, then carve every
// group's slots, queries and answers from exact-size slabs — so nothing
// grows per slot. A slot addressing the previous grouped slot's structure,
// as the router lays its sub-batches out, joins its group without resolving
// its key or a map lookup.
func groupSlots(slots []wire.BatchSlot, dists []int, errs []string) []queryGroup {
	var groups []queryGroup
	byKey := make(map[store.Key]int)
	grouped, vertex := 0, 0
	var prev *wire.BatchSlot // the last grouped slot, in group g
	g := 0
	// Until the groups answer, dists holds each grouped slot's group.
	for i := range slots {
		dists[i] = ftbfs.Unreachable
		if errs[i] != "" {
			continue
		}
		sl := &slots[i]
		if prev == nil || !sameAddress(sl, prev) {
			typ := byte(wire.TDistAvoiding)
			if sl.Vertex {
				typ = wire.TDistAvoidingVertex
			}
			k, err := keyForPoint(typ, &sl.PointQuery)
			if err != nil {
				errs[i] = err.Error()
				continue
			}
			var ok bool
			if g, ok = byKey[k]; !ok {
				g = len(groups)
				byKey[k] = g
				groups = append(groups, queryGroup{key: k})
			}
			prev = sl
		}
		groups[g].n++
		dists[i] = g
		grouped++
		if sl.Vertex {
			vertex++
		}
	}
	idx, answers, aerrs := make([]int, grouped), make([]int, grouped), make([]error, grouped)
	queries, vqueries := make([]ftbfs.FailureQuery, grouped-vertex), make([]ftbfs.VertexFailureQuery, vertex)
	for g := range groups {
		gr := &groups[g]
		gr.slots, idx = idx[:0:gr.n], idx[gr.n:]
		gr.dists, answers = answers[:gr.n], answers[gr.n:]
		gr.errs, aerrs = aerrs[:gr.n], aerrs[gr.n:]
		if gr.key.Model == core.ModelVertex {
			gr.vqueries, vqueries = vqueries[:0:gr.n], vqueries[gr.n:]
		} else {
			gr.queries, queries = queries[:0:gr.n], queries[gr.n:]
		}
	}
	for i := range slots {
		if errs[i] != "" {
			continue
		}
		gr, sl := &groups[dists[i]], &slots[i]
		gr.slots = append(gr.slots, i)
		if sl.Vertex {
			gr.vqueries = append(gr.vqueries, ftbfs.VertexFailureQuery{V: int(sl.V), Failed: int(sl.A)})
		} else {
			gr.queries = append(gr.queries, ftbfs.FailureQuery{V: int(sl.V), FailedU: int(sl.A), FailedV: int(sl.B)})
		}
	}
	return groups
}
