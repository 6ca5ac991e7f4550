package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// Property: for any random connected graph and any ε, the built structure
// satisfies the exact FT-BFS contract and its invariants.
func TestPropertyRandomGraphsAlwaysValid(t *testing.T) {
	f := func(seed int64, epsRaw uint8, extraRaw uint8) bool {
		n := 20 + int(uint(seed)%30)
		extra := int(extraRaw) % 60
		eps := float64(epsRaw%101) / 100
		g := gen.RandomConnected(n, extra, seed)
		st, err := Build(g, 0, eps, Options{})
		if err != nil {
			t.Logf("build error: %v", err)
			return false
		}
		if err := CheckInvariants(st); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		if viol := verifyStructure(st, 1); len(viol) > 0 {
			t.Logf("seed=%d n=%d eps=%g violation: %v", seed, n, eps, viol[0])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: a structure is monotone under edge addition — adding any graph
// edge to H can never break the contract (supersets of valid structures
// remain valid).
func TestPropertySupersetStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.RandomConnected(40, 60, 17)
	st, err := Build(g, 0, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	enlarged := &Structure{
		G: g, S: 0, Eps: st.Eps,
		Edges:      st.Edges.Clone(),
		Reinforced: st.Reinforced.Clone(),
	}
	for k := 0; k < 20; k++ {
		enlarged.Edges.Add(graph.EdgeID(rng.Intn(g.M())))
	}
	if viol := verifyStructure(enlarged, 1); len(viol) > 0 {
		t.Fatalf("superset broke the contract: %v", viol[0])
	}
}

// Property: the last-unprotected set is monotone — a larger H has no more
// unprotected edges.
func TestPropertyLastUnprotectedMonotone(t *testing.T) {
	g := gen.RandomConnected(40, 70, 31)
	en := replacement.NewEngine(g, 0)
	h := en.TreeEdges.Clone()
	prev := LastUnprotectedMulti(en, []*graph.EdgeSet{h})[0].Len()
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 10; step++ {
		for k := 0; k < 5; k++ {
			h.Add(graph.EdgeID(rng.Intn(g.M())))
		}
		cur := LastUnprotectedMulti(en, []*graph.EdgeSet{h})[0].Len()
		if cur > prev {
			t.Fatalf("unprotected grew from %d to %d after adding edges", prev, cur)
		}
		prev = cur
	}
}

// Property: the baseline structure is a superset-of-or-equal to T0 and its
// reinforced set is empty on 2-edge-connected graphs.
func TestPropertyBaselineOnBiconnected(t *testing.T) {
	// torus is 4-regular and 2-edge-connected
	g := gen.Torus(5, 6)
	st, err := Build(g, 0, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReinforcedCount() != 0 {
		t.Fatalf("baseline reinforced %d edges on a biconnected graph", st.ReinforcedCount())
	}
	if err := CheckInvariants(st); err != nil {
		t.Fatal(err)
	}
}

// Determinism: identical inputs give identical structures.
func TestPropertyDeterminism(t *testing.T) {
	g := gen.RandomConnected(45, 80, 41)
	a, err := Build(g, 0, 0.25, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, 0, 0.25, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Edges.IDs(), b.Edges.IDs()
	if len(ea) != len(eb) {
		t.Fatalf("sizes differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("edge sets differ")
		}
	}
	ra, rb := a.Reinforced.IDs(), b.Reinforced.IDs()
	if len(ra) != len(rb) {
		t.Fatal("reinforced sets differ")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("reinforced sets differ")
		}
	}
}

// BuildReinforcing: reinforced set is contained in the candidate set plus
// anything the candidates' omission leaves unprotected; a candidate that is
// protected anyway must not be reinforced.
func TestBuildReinforcing(t *testing.T) {
	lb := gen.LowerBoundParams(3, 5, 8)
	var costly []graph.EdgeID
	for _, pe := range lb.PiEdges {
		costly = append(costly, pe.ID)
	}
	st, err := BuildReinforcing(lb.G, lb.S, costly)
	if err != nil {
		t.Fatal(err)
	}
	if err := mustVerify(st); err != nil {
		t.Fatal(err)
	}
	cand := graph.NewEdgeSet(lb.G.M())
	for _, e := range costly {
		cand.Add(e)
	}
	if st.Reinforced.Minus(cand).Len() != 0 {
		t.Fatal("reinforced an edge outside the candidate set")
	}
	// sanity: reinforcement actually saves backup volume vs baseline here
	base, err := Build(lb.G, lb.S, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.BackupCount() >= base.BackupCount() {
		t.Fatalf("reinforcing Π saved nothing: %d vs %d", st.BackupCount(), base.BackupCount())
	}
	unfrozen := graph.New(4)
	if _, err := BuildReinforcing(unfrozen, 0, nil); err == nil {
		t.Fatal("unfrozen graph accepted")
	}
}
