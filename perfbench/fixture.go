package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"slices"
	"strconv"

	"ftbfs"
	"ftbfs/internal/bfs"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
	"ftbfs/internal/server"
	"ftbfs/internal/store"
	"ftbfs/internal/wire"
)

// Everything below derives from the workload seed. The cluster under test
// only ever receives the generated graph text and requests; the expected
// answers come from BFS in G minus the failure on locally built copies, so
// the benchmark checks answers without trusting the served construction.

const (
	graphN     = 400  // fixture vertices
	graphExtra = 1200 // random edges on top of a random spanning tree
	fixtureEps = 0.3

	pointStreamLen = 16384 // distinct point requests, cycled by the clients
	batchStreamLen = 48    // distinct 256-slot vectors, cycled by the client
	edgeScenarios  = 12    // failure scenarios per vector on edge structures
	vertScenarios  = 4     // ... and on vertex structures
	targetsPerScen = 16
	churnEdgeCount = 3
)

// The fixture's structures: 16 edge structures and 4 vertex structures on
// one graph for point-mix and whatif-batch; the churn lineage holds the
// subset for sources 0 and 200 (edge) and 0 (vertex).
var (
	fixtureEdgeSources   = []int{0, 25, 50, 75, 100, 125, 150, 175, 200, 225, 250, 275, 300, 325, 350, 375}
	fixtureVertexSources = []int{0, 100, 200, 300}
	churnEdgeSources     = []int{0, 200}
	churnVertexSources   = []int{0}
)

// Seed salts: each derived stream gets its own generator so that adding a
// stream never shifts another.
const (
	saltGraph = iota + 1
	saltPoints
	saltBatches
	saltChurn
	saltFresh
)

// derive mixes the workload seed with a salt and an index (splitmix64).
func derive(seed int64, salt, i int) int64 {
	z := uint64(seed) + uint64(salt)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// testGraph is one generated graph in every form the benchmark needs.
type testGraph struct {
	g     *ftbfs.Graph
	ig    *graph.Graph // frozen internal copy for canonical BFS trees
	text  string       // library text format: the /build payload
	edges [][2]int
	fp    string // generation-0 fingerprint = lineage, as /build reports it
}

func newTestGraph(seed int64) (*testGraph, error) {
	ig := gen.RandomConnected(graphN, graphExtra, seed)
	ig.Freeze()
	g := ftbfs.NewGraph(graphN)
	tg := &testGraph{g: g, ig: ig}
	for _, e := range ig.Edges() {
		if err := g.AddEdge(int(e.U), int(e.V)); err != nil {
			return nil, err
		}
		tg.edges = append(tg.edges, [2]int{int(e.U), int(e.V)})
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		return nil, err
	}
	g.Freeze()
	tg.text = buf.String()
	tg.fp = fmt.Sprintf("%016x", g.Lineage())
	return tg, nil
}

// structRef is one fixture structure: its local copy, the canonical BFS
// tree of G from its source, and the edges a query may fail.
type structRef struct {
	vertex   bool
	source   int
	key      store.Key
	st       *ftbfs.Structure
	vst      *ftbfs.VertexStructure
	oracle   *ftbfs.Oracle       // reference answers (not concurrency-safe)
	voracle  *ftbfs.VertexOracle // reference answers (not concurrency-safe)
	tree     *bfs.Tree
	failable [][2]int // edge model: non-reinforced edges of G, churn edges excluded
	repair   [][3]int // memo of repairFailures
}

// fixture is the graph the cluster serves plus its structures.
type fixture struct {
	*testGraph
	edge   []*structRef
	vertex []*structRef
	churn  [][2]int // edges outside every churn-lineage structure, never failed
	build  server.BuildRequest
	probes []pointReq // one failure query per structure, asked during set-up
}

// newFixture builds the local reference copies of the fixture's structures
// and picks the churn edges: churnEdgeCount edges of G outside the edge
// structures of sources 0 and 200 and the vertex structure of source 0,
// which every fixture holds. Churn edges are excluded from every failable
// set, so answers are the same at every generation of the lineage.
func newFixture(seed int64, edgeSources, vertexSources []int) (*fixture, error) {
	tg, err := newTestGraph(derive(seed, saltGraph, 0))
	if err != nil {
		return nil, err
	}
	fx := &fixture{testGraph: tg}
	reqs := make([]ftbfs.BatchRequest, len(edgeSources))
	for i, s := range edgeSources {
		reqs[i] = ftbfs.BatchRequest{Source: s, Eps: fixtureEps}
	}
	sts, err := ftbfs.BuildBatch(tg.g, reqs)
	if err != nil {
		return nil, fmt.Errorf("local build: %w", err)
	}
	for i, s := range edgeSources {
		eps := fixtureEps
		key, err := (&server.QueryRequest{Graph: tg.fp, Source: s, Eps: &eps}).EdgeKey()
		if err != nil {
			return nil, err
		}
		fx.edge = append(fx.edge, &structRef{source: s, key: key, st: sts[i], oracle: sts[i].Oracle(), tree: bfs.From(tg.ig, s)})
	}
	for _, s := range vertexSources {
		vst, err := ftbfs.BuildVertex(tg.g, s)
		if err != nil {
			return nil, fmt.Errorf("local vertex build: %w", err)
		}
		fx.vertex = append(fx.vertex, &structRef{vertex: true, source: s, key: store.VertexKey(tg.g.Lineage(), s),
			vst: vst, voracle: vst.Oracle(), tree: bfs.From(tg.ig, s)})
	}

	lineage := fx.lineage()
	if len(lineage) != len(churnEdgeSources)+len(churnVertexSources) {
		return nil, fmt.Errorf("fixture lacks the churn lineage structures")
	}
	var outside [][2]int
	for _, e := range tg.edges {
		in := false
		for _, r := range lineage {
			if (r.vertex && r.vst.Contains(e[0], e[1])) || (!r.vertex && r.st.Contains(e[0], e[1])) {
				in = true
			}
		}
		if !in {
			outside = append(outside, e)
		}
	}
	if len(outside) < churnEdgeCount {
		return nil, fmt.Errorf("only %d edges lie outside the churn lineage structures", len(outside))
	}
	rng := rand.New(rand.NewSource(derive(seed, saltChurn, 0)))
	for _, i := range rng.Perm(len(outside))[:churnEdgeCount] {
		fx.churn = append(fx.churn, outside[i])
	}
	churned := make(map[[2]int]bool)
	for _, e := range fx.churn {
		churned[e] = true
	}
	for _, r := range fx.edge {
		for _, e := range tg.edges {
			if !churned[e] && !r.st.IsReinforced(e[0], e[1]) {
				r.failable = append(r.failable, e)
			}
		}
	}
	fx.build = server.BuildRequest{Graph: tg.text, Sources: edgeSources, Eps: []float64{fixtureEps}, VertexSources: vertexSources}
	for _, r := range fx.structs() {
		p, err := r.probe(fx.fp)
		if err != nil {
			return nil, err
		}
		fx.probes = append(fx.probes, p)
	}
	return fx, nil
}

// probe is the failure query set-up asks the structure. It targets the
// vertex after the source and fails the structure's first failable edge or,
// on a vertex structure, the vertex two after the source.
func (r *structRef) probe(fp string) (pointReq, error) {
	p := pointReq{ref: r, v: (r.source + 1) % graphN}
	var err error
	if r.vertex {
		p.typ, p.a = wire.TDistAvoidingVertex, (r.source+2)%graphN
		p.url = fmt.Sprintf("/dist-avoiding-vertex?graph=%s&source=%d&v=%d&fw=%d", fp, r.source, p.v, p.a)
		p.want, err = r.voracle.BaselineDistAvoidingVertex(p.v, p.a)
	} else {
		e := r.failable[0]
		p.typ, p.a, p.b = wire.TDistAvoiding, e[0], e[1]
		p.url = fmt.Sprintf("/dist-avoiding?graph=%s&source=%d&eps=%g&v=%d&fu=%d&fv=%d", fp, r.source, fixtureEps, p.v, p.a, p.b)
		p.want, err = r.oracle.BaselineDistAvoiding(p.v, p.a, p.b)
	}
	return p, err
}

// structs returns the fixture's edge structures followed by its vertex
// structures.
func (fx *fixture) structs() []*structRef {
	return append(append([]*structRef(nil), fx.edge...), fx.vertex...)
}

// lineage returns the fixture's structures the churn lineage holds.
func (fx *fixture) lineage() []*structRef {
	var out []*structRef
	for _, r := range fx.structs() {
		sources := churnEdgeSources
		if r.vertex {
			sources = churnVertexSources
		}
		if slices.Contains(sources, r.source) {
			out = append(out, r)
		}
	}
	return out
}

// pointReq is one routed point query with its expected answer.
type pointReq struct {
	typ  byte // the wire frame type of the endpoint
	ref  *structRef
	v    int
	a, b int // failed edge endpoints, or the failed vertex in a
	want int
	url  string // path and query, relative to a base URL
}

// wireQuery is the request in binary-protocol form.
func (p *pointReq) wireQuery() wire.PointQuery {
	k := p.ref.key
	q := wire.PointQuery{FP: k.Graph, EpsBits: math.Float64bits(k.Eps), Source: int32(k.Source), Alg: int32(k.Alg), V: int32(p.v), A: -1, B: -1}
	switch p.typ {
	case wire.TDistAvoiding:
		q.A, q.B = int32(p.a), int32(p.b)
	case wire.TDistAvoidingVertex:
		q.A = int32(p.a)
	}
	return q
}

// pointStream draws the point-mix: 70% /dist-avoiding with the failed edge
// uniform over the structure's failable edges, 20% /dist-avoiding-vertex
// with the failed vertex uniform over non-source vertices, 10% /dist;
// structures and targets uniform.
func (fx *fixture) pointStream(seed int64, n int) ([]pointReq, error) {
	rng := rand.New(rand.NewSource(derive(seed, saltPoints, 0)))
	out := make([]pointReq, n)
	for i := range out {
		p := &out[i]
		p.v = rng.Intn(graphN)
		vals := url.Values{"graph": {fx.fp}}
		var path string
		switch x := rng.Float64(); {
		case x < 0.7:
			path, p.typ = "/dist-avoiding", wire.TDistAvoiding
			p.ref = fx.edge[rng.Intn(len(fx.edge))]
			e := p.ref.failable[rng.Intn(len(p.ref.failable))]
			p.a, p.b = e[0], e[1]
			d, err := p.ref.oracle.BaselineDistAvoiding(p.v, p.a, p.b)
			if err != nil {
				return nil, err
			}
			p.want = d
			vals.Set("fu", strconv.Itoa(p.a))
			vals.Set("fv", strconv.Itoa(p.b))
		case x < 0.9:
			path, p.typ = "/dist-avoiding-vertex", wire.TDistAvoidingVertex
			p.ref = fx.vertex[rng.Intn(len(fx.vertex))]
			p.a = rng.Intn(graphN - 1)
			if p.a >= p.ref.source {
				p.a++
			}
			d, err := p.ref.voracle.BaselineDistAvoidingVertex(p.v, p.a)
			if err != nil {
				return nil, err
			}
			p.want = d
			vals.Set("fw", strconv.Itoa(p.a))
		default:
			path, p.typ = "/dist", wire.TDist
			p.ref = fx.edge[rng.Intn(len(fx.edge))]
			p.want = int(p.ref.tree.Dist[p.v])
		}
		vals.Set("source", strconv.Itoa(p.ref.source))
		if !p.ref.vertex {
			vals.Set("eps", strconv.FormatFloat(fixtureEps, 'g', -1, 64))
		}
		vals.Set("v", strconv.Itoa(p.v))
		p.url = path + "?" + vals.Encode()
	}
	return out, nil
}

// batchSlot is one slot of a what-if vector.
type batchSlot struct {
	ref  *structRef
	v    int
	a, b int
	want int
}

// batchReq is one /batch-query vector: its JSON body and expected answers.
type batchReq struct {
	body  []byte
	slots []batchSlot
}

// batchStream draws the what-if vectors. Each holds edgeScenarios edge and
// vertScenarios vertex failure scenarios of targetsPerScen targets, rotating
// over the structures so consecutive vectors cover all of them. Every
// scenario fails a tree edge or an internal tree vertex of the canonical BFS
// tree (which H contains) and half of its targets hang below the failure,
// so each scenario costs one subtree repair.
func (fx *fixture) batchStream(seed int64, n int) ([]batchReq, error) {
	rng := rand.New(rand.NewSource(derive(seed, saltBatches, 0)))
	out := make([]batchReq, n)
	for j := range out {
		var slots []batchSlot
		for sc := 0; sc < edgeScenarios+vertScenarios; sc++ {
			ref := fx.edge[(j*edgeScenarios+sc)%len(fx.edge)]
			if sc >= edgeScenarios {
				ref = fx.vertex[(j*vertScenarios+sc-edgeScenarios)%len(fx.vertex)]
			}
			cands := ref.repairFailures()
			if len(cands) == 0 {
				return nil, fmt.Errorf("%v has no failure that costs a subtree repair", ref.key)
			}
			f := cands[rng.Intn(len(cands))]
			a, b, child := f[0], f[1], f[2]
			below := subtree(ref.tree, child)
			for t := 0; t < targetsPerScen; t++ {
				v := rng.Intn(graphN)
				if t%2 == 0 {
					v = below[rng.Intn(len(below))]
				}
				s := batchSlot{ref: ref, v: v, a: a, b: b}
				var err error
				if ref.vertex {
					s.want, err = ref.voracle.BaselineDistAvoidingVertex(v, a)
				} else {
					s.want, err = ref.oracle.BaselineDistAvoiding(v, a, b)
				}
				if err != nil {
					return nil, err
				}
				slots = append(slots, s)
			}
		}
		rng.Shuffle(len(slots), func(x, y int) { slots[x], slots[y] = slots[y], slots[x] })
		req := server.BatchQueryRequest{Graph: fx.fp, Queries: make([]server.BatchQuery, len(slots))}
		for i, s := range slots {
			src := s.ref.source
			q := server.BatchQuery{Source: &src, V: s.v}
			if s.ref.vertex {
				fw := s.a
				q.FailedVertex = &fw
			} else {
				eps := fixtureEps
				q.Eps = &eps
				q.Fail = [2]int{s.a, s.b}
			}
			req.Queries[i] = q
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		out[j] = batchReq{body: body, slots: slots}
	}
	return out, nil
}

// wireSlot is the slot in binary-protocol form.
func (s *batchSlot) wireSlot() wire.BatchSlot {
	k := s.ref.key
	ws := wire.BatchSlot{PointQuery: wire.PointQuery{FP: k.Graph, EpsBits: math.Float64bits(k.Eps), Source: int32(k.Source),
		Alg: int32(k.Alg), V: int32(s.v), A: int32(s.a), B: int32(s.b)}}
	if s.ref.vertex {
		ws.Vertex = true
		ws.B = -1
	}
	return ws
}

// treeChild returns the deeper endpoint of e when e is a tree edge, else -1.
func treeChild(t *bfs.Tree, e [2]int) int {
	switch {
	case t.Parent[e[1]] == int32(e[0]):
		return e[1]
	case t.Parent[e[0]] == int32(e[1]):
		return e[0]
	}
	return -1
}

// repairFailures lists the failures of the structure that cost a subtree
// repair, as (a, b, root of the failed subtree): failable tree edges
// {a, b} (edge model) or tree vertices a ≠ source (vertex model, b = -1)
// with at least one more vertex hanging below them.
func (r *structRef) repairFailures() [][3]int {
	if r.repair != nil {
		return r.repair
	}
	if r.vertex {
		for w := range r.tree.Parent {
			if w != r.source && subtreeSize(r.tree, w) > 1 {
				r.repair = append(r.repair, [3]int{w, -1, w})
			}
		}
		return r.repair
	}
	for _, e := range r.failable {
		if c := treeChild(r.tree, e); c >= 0 && subtreeSize(r.tree, c) > 1 {
			r.repair = append(r.repair, [3]int{e[0], e[1], c})
		}
	}
	return r.repair
}

// subtree returns the vertices of the tree hanging from c, c included.
func subtree(t *bfs.Tree, c int) []int {
	in := make([]bool, len(t.Parent))
	in[c] = true
	out := []int{c}
	for _, v := range t.Order {
		if p := t.Parent[v]; p >= 0 && in[p] && !in[v] {
			in[v] = true
			out = append(out, int(v))
		}
	}
	return out
}

func subtreeSize(t *bfs.Tree, c int) int { return len(subtree(t, c)) }

// freshBuild is the churn writer's k-th cold /build: a new seeded graph with
// edge structures for sources 0 and 200 at ε 0.1 and 0.3 and a vertex
// structure for source 0.
func freshBuild(seed int64, k int) (*testGraph, server.BuildRequest, error) {
	tg, err := newTestGraph(derive(seed, saltFresh, k))
	if err != nil {
		return nil, server.BuildRequest{}, err
	}
	return tg, server.BuildRequest{Graph: tg.text, Sources: churnEdgeSources, Eps: []float64{0.1, 0.3}, VertexSources: churnVertexSources}, nil
}
