package core

import (
	"testing"

	"ftbfs/internal/gen"
)

func TestBuildMultiValid(t *testing.T) {
	g := gen.RandomConnected(40, 60, 21)
	ms, err := BuildMulti(g, []int{0, 7, 13}, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Per) != 3 {
		t.Fatalf("per-source structures: %d", len(ms.Per))
	}
	if viol := VerifyMulti(ms, 0); len(viol) != 0 {
		t.Fatalf("FT-MBFS violations: %v", viol[:min(len(viol), 3)])
	}
	if ms.Size() != ms.BackupCount()+ms.ReinforcedCount() {
		t.Fatal("size mismatch")
	}
	// union at least as large as each part
	for _, st := range ms.Per {
		if ms.Size() < st.Size() {
			t.Fatal("union smaller than a part")
		}
	}
}

func TestBuildMultiOnLowerBoundGraph(t *testing.T) {
	lb := gen.MultiLowerBoundParams(2, 2, 3, 4)
	ms, err := BuildMulti(lb.G, lb.Sources, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if viol := VerifyMulti(ms, 0); len(viol) != 0 {
		t.Fatalf("violations on the Thm 5.4 construction: %d", len(viol))
	}
}

func TestBuildMultiErrors(t *testing.T) {
	g := gen.Cycle(6)
	if _, err := BuildMulti(g, nil, 0.3, Options{}); err == nil {
		t.Fatal("empty source list accepted")
	}
	if _, err := BuildMulti(g, []int{99}, 0.3, Options{}); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestPredictedOptimalEps(t *testing.T) {
	if PredictedOptimalEps(1000, 1, 1) != 0 {
		t.Fatal("equal prices should predict ε=0")
	}
	// monotone in R/B and clamped
	prev := -1.0
	for _, ratio := range []float64{1, 4, 16, 256, 1 << 20} {
		eps := PredictedOptimalEps(1000, 1, ratio)
		if eps < prev {
			t.Fatalf("not monotone at R/B=%g", ratio)
		}
		if eps < 0 || eps > 0.5 {
			t.Fatalf("out of range: %g", eps)
		}
		prev = eps
	}
	if PredictedOptimalEps(1000, 4, 1) != 0 {
		t.Fatal("cheap reinforcement must clamp to 0")
	}
	if PredictedOptimalEps(1, 1, 10) != 0 || PredictedOptimalEps(10, 0, 1) != 0 {
		t.Fatal("degenerate inputs must return 0")
	}
}
