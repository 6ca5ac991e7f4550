package gen

import (
	"testing"

	"ftbfs/internal/graph"
)

func TestCirculant(t *testing.T) {
	g := Circulant(12, []int{1, 3})
	if g.N() != 12 || g.M() != 24 {
		t.Fatalf("C_12(1,3): n=%d m=%d", g.N(), g.M())
	}
	for v := 0; v < 12; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("deg(%d)=%d want 4", v, g.Degree(v))
		}
	}
	if !connected(g) {
		t.Fatal("circulant disconnected")
	}
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	// antipodal offset halves the edge count per offset
	h := Circulant(8, []int{4})
	if h.M() != 4 {
		t.Fatalf("C_8(4): m=%d want 4", h.M())
	}
}

func TestRandomRegular(t *testing.T) {
	g := RandomRegular(50, 4, 7)
	if g.N() != 50 {
		t.Fatal("n wrong")
	}
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	// the pairing retries make exact regularity overwhelmingly likely
	irregular := 0
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			irregular++
		}
	}
	if irregular > 2 {
		t.Fatalf("%d vertices off-degree", irregular)
	}
	// determinism
	a, b := RandomRegular(30, 3, 9), RandomRegular(30, 3, 9)
	if a.M() != b.M() {
		t.Fatal("not deterministic")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd n·d accepted")
		}
	}()
	RandomRegular(5, 3, 1)
}

func TestRandomRegularManySeeds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := RandomRegular(40, 4, seed)
		if err := graph.Validate(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != 4 {
				t.Fatalf("seed %d: deg(%d)=%d", seed, v, g.Degree(v))
			}
		}
	}
}
