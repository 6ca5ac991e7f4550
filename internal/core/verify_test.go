package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
)

// verifyStructure runs Verify on an edge structure.
func verifyStructure(st *Structure, limit int) []Violation {
	return Verify(st.G, st.S, st.Edges, st.Reinforced, ModelEdge, limit)
}

// mustVerify is verifyStructure returning an error naming the first
// violations.
func mustVerify(st *Structure) error {
	if viol := verifyStructure(st, 5); len(viol) > 0 {
		return fmt.Errorf("structure violates the FT-BFS contract: %v", viol)
	}
	return nil
}

// plainDist is a textbook BFS from s over the arcs of g that keep admits. It
// shares no code with the verifier, so the scans below are an independent
// oracle for it.
func plainDist(g *graph.Graph, s int, keep func(graph.Arc) bool) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int32{int32(s)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.Neighbors(int(u)) {
			if dist[a.To] < 0 && keep(a) {
				dist[a.To] = dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}

// bruteViolations fails every edge outside reinforced (edge model) or every
// vertex other than s (vertex model) in turn, and lists each vertex that is
// farther from s in H than in G, in the order Verify reports them.
func bruteViolations(g *graph.Graph, s int, h, reinforced *graph.EdgeSet, model Model) []Violation {
	var out []Violation
	scan := func(f int32, down func(graph.Arc) bool) {
		inG := plainDist(g, s, func(a graph.Arc) bool { return !down(a) })
		inH := plainDist(g, s, func(a graph.Arc) bool { return !down(a) && h.Contains(a.ID) })
		for v := range inG {
			if inG[v] >= 0 && (inH[v] < 0 || inH[v] > inG[v]) {
				out = append(out, Violation{Model: model, Failed: f, Vertex: int32(v), InH: inH[v], InG: inG[v]})
			}
		}
	}
	if model == ModelVertex {
		for w := int32(0); w < int32(g.N()); w++ {
			if w != int32(s) {
				scan(w, func(a graph.Arc) bool { return a.To == w })
			}
		}
		return out
	}
	for e := graph.EdgeID(0); int(e) < g.M(); e++ {
		if !reinforced.Contains(e) {
			scan(int32(e), func(a graph.Arc) bool { return a.ID == e })
		}
	}
	return out
}

// checkAgainstBrute asserts that Verify reports exactly the violations the
// brute-force scan finds — so it reports one exactly when the scan does,
// and each one carries the scan's BFS distances — and that the limit keeps
// a prefix of them. It returns whether the contract is broken.
func checkAgainstBrute(t testing.TB, g *graph.Graph, s int, h, reinforced *graph.EdgeSet, model Model) bool {
	t.Helper()
	want := bruteViolations(g, s, h, reinforced, model)
	if got := Verify(g, s, h, reinforced, model, 0); !slices.Equal(got, want) {
		t.Fatalf("model %d, s=%d, H=%v, reinforced=%v:\nVerify %v\nbrute  %v", model, s, h.IDs(), reinforced.IDs(), got, want)
	}
	if got := Verify(g, s, h, reinforced, model, 1); !slices.Equal(got, want[:min(1, len(want))]) {
		t.Fatalf("model %d: limit 1 kept %v of %v", model, got, want)
	}
	return len(want) > 0
}

// fourCycleFixture is G = the 4-cycle 0-1-2-3-0 with H = the path {0,1},
// {1,2}, {2,3} and nothing reinforced. H breaks the contract — failing
// {0,1} strands vertex 1 in H, while G∖{0,1} reaches it at distance 3 —
// yet it holds on every edge of a T0 taken from anything but G.
func fourCycleFixture() (g *graph.Graph, h *graph.EdgeSet) {
	g = graph.New(4)
	h = graph.NewEdgeSet(4)
	h.Add(g.MustAddEdge(0, 1))
	h.Add(g.MustAddEdge(1, 2))
	h.Add(g.MustAddEdge(2, 3))
	g.MustAddEdge(3, 0)
	return g.Freeze(), h
}

func TestVerifyPicksFailuresFromGAndH(t *testing.T) {
	g, h := fourCycleFixture()
	st := &Structure{G: g, S: 0, Edges: h, Reinforced: graph.NewEdgeSet(g.M())}
	viol := verifyStructure(st, 0)
	want := Violation{Model: ModelEdge, Failed: int32(g.EdgeIDOf(0, 1)), Vertex: 1, InH: -1, InG: 3}
	if len(viol) == 0 || viol[0] != want {
		t.Fatalf("violations %v, want first %v", viol, want)
	}
	checkAgainstBrute(t, g, 0, h, st.Reinforced, ModelEdge)
}

func TestViolationText(t *testing.T) {
	edge := Violation{Model: ModelEdge, Failed: 4, Vertex: 7, InH: -1, InG: 3}
	if got, want := edge.String(), `edge 4, vertex 7: dist in H\e = -1 > dist in G\e = 3`; got != want {
		t.Fatalf("edge text %q, want %q", got, want)
	}
	vertex := Violation{Model: ModelVertex, Failed: 4, Vertex: 7, InH: 5, InG: 3}
	if got, want := vertex.String(), `vertex 4 failed, vertex 7: dist in H\w = 5 > dist in G\w = 3`; got != want {
		t.Fatalf("vertex text %q, want %q", got, want)
	}
}

// Differential: in both failure models, Verify must agree with a brute-force
// scan of every failure on built structures, on structures weakened by
// dropping H edges (tree edges included, a dropped reinforced edge leaving
// the reinforced set too) and on structures strengthened by adding G edges.
// The run must see both outcomes.
func TestFailureInjectionVerifierConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	broken := map[Model]int{}
	holds := map[Model]int{}
	for seed := int64(0); seed < 120; seed++ {
		n := 6 + int(seed%10)
		g := gen.RandomConnected(n, rng.Intn(2*n), seed)
		s := rng.Intn(n)
		st, err := Build(g, s, []float64{0, 0.2, 0.4, 1}[seed%4], Options{})
		if err != nil {
			t.Fatal(err)
		}
		vh, err := BuildVertex(g, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []Model{ModelEdge, ModelVertex} {
			h, reinforced := st.Edges, st.Reinforced
			if model == ModelVertex {
				h, reinforced = vh, graph.NewEdgeSet(g.M())
			}
			drop := func(h, r *graph.EdgeSet, k int) {
				ids := h.IDs()
				for _, i := range rng.Perm(len(ids))[:min(k, len(ids))] {
					h.Remove(ids[i])
					r.Remove(ids[i])
				}
			}
			add := func(h *graph.EdgeSet, k int) {
				for range k {
					h.Add(graph.EdgeID(rng.Intn(g.M())))
				}
			}
			weakH, weakR := h.Clone(), reinforced.Clone()
			drop(weakH, weakR, 1+rng.Intn(2))
			strongH := h.Clone()
			add(strongH, 1+rng.Intn(3))
			mixedH, mixedR := h.Clone(), reinforced.Clone()
			drop(mixedH, mixedR, 1)
			add(mixedH, 2)
			for _, c := range []struct{ h, r *graph.EdgeSet }{
				{h, reinforced}, {weakH, weakR}, {strongH, reinforced}, {mixedH, mixedR},
			} {
				if checkAgainstBrute(t, g, s, c.h, c.r, model) {
					broken[model]++
				} else {
					holds[model]++
				}
			}
		}
	}
	for _, model := range []Model{ModelEdge, ModelVertex} {
		if broken[model] == 0 || holds[model] == 0 {
			t.Fatalf("model %d: %d broken, %d holding cases; the run must see both", model, broken[model], holds[model])
		}
	}
	t.Logf("broken %v, holding %v", broken, holds)
}

// decodeVerifyInput turns fuzz bytes into a small verifier input. Byte 0
// picks n ∈ [2, 12], byte 1 the source, byte 2 the model; then one byte per
// vertex pair u < v, in order, whose bits 0, 1 and 2 put {u,v} in G, in
// H ⊆ G and in reinforced ⊆ H (each bit counts only if the previous one
// does). Missing bytes leave their pairs out of G.
func decodeVerifyInput(data []byte) (g *graph.Graph, s int, h, reinforced *graph.EdgeSet, model Model, ok bool) {
	if len(data) < 3 {
		return nil, 0, nil, nil, 0, false
	}
	n := 2 + int(data[0])%11
	s, model = int(data[1])%n, Model(data[2]&1)
	g = graph.New(n)
	var inH, inR []graph.EdgeID
	next := 3
	for u := 0; u < n; u++ {
		for v := u + 1; v < n && next < len(data); v++ {
			b := data[next]
			next++
			if b&1 == 0 {
				continue
			}
			id := g.MustAddEdge(u, v)
			if b&2 != 0 {
				inH = append(inH, id)
				if b&4 != 0 {
					inR = append(inR, id)
				}
			}
		}
	}
	g.Freeze()
	h, reinforced = graph.NewEdgeSet(g.M()), graph.NewEdgeSet(g.M())
	for _, id := range inH {
		h.Add(id)
	}
	for _, id := range inR {
		reinforced.Add(id)
	}
	return g, s, h, reinforced, model, true
}

// FuzzVerify checks the differential's property on arbitrary small inputs:
// Verify reports exactly the violations a brute-force scan of every failure
// finds. The seeds include the 4-cycle fixture in both models.
func FuzzVerify(f *testing.F) {
	// n=4, s=0; pairs (0,1) (0,2) (0,3) (1,2) (1,3) (2,3): H = {0,1} {1,2}
	// {2,3}, and {0,3} in G only.
	fixture := []byte{2, 0, 0, 3, 0, 1, 3, 0, 3}
	f.Add(fixture)
	f.Add(append([]byte{2, 0, 1}, fixture[3:]...))
	f.Add([]byte{10, 3, 0, 7, 3, 1, 7, 0, 3, 3, 1, 7, 0, 3, 0, 3, 7, 1, 3, 3})
	f.Add([]byte{5, 1, 1, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, s, h, reinforced, model, ok := decodeVerifyInput(data)
		if !ok {
			return
		}
		checkAgainstBrute(t, g, s, h, reinforced, model)
	})
}
