package gen

import (
	"testing"

	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
)

// connected reports whether one BFS from vertex 0 reaches all of g.
func connected(g *graph.Graph) bool { return len(bfs.From(g, 0).Order) == g.N() }

func TestStructuredCounts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		n, m int
	}{
		{"path", PathGraph(10), 10, 9},
		{"cycle", Cycle(8), 8, 8},
		{"star", Star(7), 7, 6},
		{"complete", Complete(6), 6, 15},
		{"biclique", CompleteBipartite(3, 4), 7, 12},
		{"cliquechain", CliqueChain(6), 6, 1 + 10},
		{"grid", Grid(3, 4), 12, 3*3 + 2*4},
		{"torus", Torus(3, 4), 12, 24},
		{"hypercube", Hypercube(4), 16, 32},
	}
	for _, c := range cases {
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Errorf("%s: n=%d m=%d want n=%d m=%d", c.name, c.g.N(), c.g.M(), c.n, c.m)
		}
		if err := graph.Validate(c.g); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if !connected(c.g) {
			t.Errorf("%s: not connected", c.name)
		}
	}
}

func TestGNPDeterministicAndBounded(t *testing.T) {
	a := GNP(40, 0.2, 9)
	b := GNP(40, 0.2, 9)
	if a.M() != b.M() {
		t.Fatal("GNP not deterministic for fixed seed")
	}
	c := GNP(40, 0.2, 10)
	if a.M() == c.M() && a.M() != 0 {
		// extremely unlikely to coincide exactly; tolerate but check edges differ
		same := true
		ae, ce := a.Edges(), c.Edges()
		for i := range ae {
			if ae[i] != ce[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds gave identical graphs")
		}
	}
	if GNP(10, 0, 1).M() != 0 || GNP(10, 1, 1).M() != 45 {
		t.Fatal("GNP extremes wrong")
	}
}

func TestGNM(t *testing.T) {
	g := GNM(30, 100, 4)
	if g.M() != 100 {
		t.Fatalf("GNM m=%d", g.M())
	}
	if g := GNM(5, 1000, 4); g.M() != 10 {
		t.Fatalf("GNM clamp failed: %d", g.M())
	}
}

func TestRandomFamiliesConnected(t *testing.T) {
	if !connected(RandomTree(50, 3)) {
		t.Fatal("RandomTree disconnected")
	}
	if RandomTree(50, 3).M() != 49 {
		t.Fatal("RandomTree edge count")
	}
	if !connected(RandomConnected(60, 30, 5)) {
		t.Fatal("RandomConnected disconnected")
	}
	if !connected(GNPConnected(80, 0.01, 7)) {
		t.Fatal("GNPConnected disconnected")
	}
	if !connected(GNPConnected(80, 0.2, 7)) {
		t.Fatal("GNPConnected (dense) disconnected")
	}
}

func TestLowerBoundAccounting(t *testing.T) {
	k, d, x := 3, 4, 7
	lb := LowerBoundParams(k, d, x)
	g := lb.G
	wantN := 1 + k*((d+1)+(d*d+5*d)+x)
	if g.N() != wantN {
		t.Fatalf("N=%d want %d", g.N(), wantN)
	}
	// edges: per copy: 1 (s-s_i) + d (π) + d²+5d (P paths) + x (star) + x·d (biclique)
	wantM := k * (1 + d + d*d + 5*d + x + x*d)
	if g.M() != wantM {
		t.Fatalf("M=%d want %d", g.M(), wantM)
	}
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !connected(g) {
		t.Fatal("lower-bound graph disconnected")
	}
	if len(lb.PiEdges) != k*d {
		t.Fatalf("%d costly edges, want %d", len(lb.PiEdges), k*d)
	}
	for _, pe := range lb.PiEdges {
		if len(lb.Fan(pe)) != x {
			t.Fatalf("fan of %+v has %d edges, want %d", pe, len(lb.Fan(pe)), x)
		}
	}
}

// The distance profile that drives Theorem 5.1: in the intact graph,
// dist(s,x)=d+2 for x ∈ X_i and dist(s,z_j)=d+3; upon failure of the j'th
// path edge, dist(s,x) jumps to 2d−j+7 and the unique shortest path ends
// with (z_j, x).
func TestLowerBoundDistanceProfile(t *testing.T) {
	lb := LowerBoundParams(2, 5, 6)
	g, d := lb.G, lb.D
	dist := bfs.From(g, lb.S).Dist
	for i := 0; i < lb.K; i++ {
		for _, x := range lb.X[i] {
			if int(dist[x]) != d+2 {
				t.Fatalf("dist(s,x)=%d want %d", dist[x], d+2)
			}
		}
		for _, z := range lb.Z[i] {
			if int(dist[z]) != d+3 {
				t.Fatalf("dist(s,z)=%d want %d", dist[z], d+3)
			}
		}
	}
	sc := bfs.NewScratch(g.N())
	out := make([]int32, g.N())
	for _, pe := range lb.PiEdges {
		sc.DistancesAvoiding(g, lb.S, bfs.Restriction{BannedEdge: pe.ID}, out)
		want := int32(2*d - pe.J + 7)
		for _, x := range lb.X[pe.Copy] {
			if out[x] != want {
				t.Fatalf("copy %d edge j=%d: dist(s,x)=%d want %d", pe.Copy, pe.J, out[x], want)
			}
			// unique last edge: only the neighbour z_j attains dist-1
			count := 0
			for _, a := range g.Neighbors(int(x)) {
				if out[a.To] == want-1 {
					count++
					if a.To != pe.Z {
						t.Fatalf("unexpected penultimate %d (want z=%d)", a.To, pe.Z)
					}
				}
			}
			if count != 1 {
				t.Fatalf("x has %d shortest predecessors, want 1", count)
			}
		}
	}
}

func TestLowerBoundSizing(t *testing.T) {
	lb := LowerBound(2000, 0.25)
	n := lb.G.N()
	if n < 1000 || n > 4000 {
		t.Fatalf("sized graph has %d vertices for target 2000", n)
	}
	if lb.Eps != 0.25 {
		t.Fatal("eps not recorded")
	}
	if lb.TheoreticalBackupLowerBound(0) != len(lb.PiEdges)*len(lb.X[0]) {
		t.Fatal("theoretical bound with r=0 wrong")
	}
	if lb.TheoreticalBackupLowerBound(1<<30) != 0 {
		t.Fatal("theoretical bound with huge r must be 0")
	}
}

func TestMultiLowerBoundAccounting(t *testing.T) {
	K, kk, d, x := 3, 2, 3, 5
	lb := MultiLowerBoundParams(K, kk, d, x)
	g := lb.G
	perGadget := (d + 1) + (d*d + 5*d)
	wantN := K + kk*(K*perGadget+1+x)
	if g.N() != wantN {
		t.Fatalf("N=%d want %d", g.N(), wantN)
	}
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !connected(g) {
		t.Fatal("multi lower-bound graph disconnected")
	}
	if len(lb.Sources) != K || len(lb.PiEdges) != K*kk*d {
		t.Fatalf("sources=%d piEdges=%d", len(lb.Sources), len(lb.PiEdges))
	}
	for _, pe := range lb.PiEdges {
		if len(lb.Fan(pe)) != x {
			t.Fatal("fan size wrong")
		}
	}
}

// Claim 5.6's distance profile: failure of e_ℓ^{i,j} forces, for source i,
// the unique replacement path to every x ∈ X_j through z_ℓ^{i,j}; other
// sources keep their intact distance d+3.
func TestMultiLowerBoundDistanceProfile(t *testing.T) {
	lb := MultiLowerBoundParams(2, 2, 4, 5)
	g, d := lb.G, lb.D
	for i, s := range lb.Sources {
		dist := bfs.From(g, s).Dist
		for j := range lb.X {
			for _, x := range lb.X[j] {
				if int(dist[x]) != d+3 {
					t.Fatalf("source %d: dist to x=%d is %d want %d", i, x, dist[x], d+3)
				}
			}
		}
	}
	sc := bfs.NewScratch(g.N())
	out := make([]int32, g.N())
	for _, pe := range lb.PiEdges {
		s := lb.Sources[pe.Source]
		sc.DistancesAvoiding(g, s, bfs.Restriction{BannedEdge: pe.ID}, out)
		want := int32(2*d - pe.L + 7) // 1 + (ℓ-1) + t_ℓ + 1 with t_ℓ = 6+2(d-ℓ)
		for _, x := range lb.X[pe.Column] {
			if out[x] != want {
				t.Fatalf("src %d col %d ℓ=%d: dist=%d want %d", pe.Source, pe.Column, pe.L, out[x], want)
			}
			count := 0
			for _, a := range g.Neighbors(int(x)) {
				if out[a.To] == want-1 {
					count++
					if a.To != pe.Z {
						t.Fatalf("unexpected penultimate %d (want z=%d)", a.To, pe.Z)
					}
				}
			}
			if count != 1 {
				t.Fatalf("x has %d shortest predecessors, want 1", count)
			}
		}
		// an unaffected source keeps its intact distance
		other := lb.Sources[(pe.Source+1)%len(lb.Sources)]
		d2 := sc.DistancesAvoiding(g, other, bfs.Restriction{BannedEdge: pe.ID}, out)[lb.X[pe.Column][0]]
		if int(d2) != d+3 {
			t.Fatalf("unaffected source distance changed: %d want %d", d2, d+3)
		}
	}
}

func TestMultiLowerBoundSizing(t *testing.T) {
	lb := MultiLowerBound(3000, 4, 0.25)
	if lb.G.N() < 1500 || lb.G.N() > 6000 {
		t.Fatalf("sized to %d for target 3000", lb.G.N())
	}
}
