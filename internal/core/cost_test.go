package core

import (
	"math"
	"testing"

	"ftbfs/internal/gen"
)

func TestPredictedOptimalEpsMidrange(t *testing.T) {
	// log(R/B)/(2 log n): n=10^4, R/B=10^2 → 2/(2·4) = 0.25
	if got := PredictedOptimalEps(10000, 1, 100); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("got %g want 0.25", got)
	}
}

func TestGreedyDefaultBudget(t *testing.T) {
	// with eps=0.5 and n vertices, the default budget is ⌈n^{0.5}⌉; the
	// resulting reinforced count can only be smaller.
	g := gen.RandomConnected(49, 80, 3)
	st, err := Build(g, 0, 0.5, Options{Algorithm: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReinforcedCount() > 7 {
		t.Fatalf("reinforced %d exceeds default budget 7", st.ReinforcedCount())
	}
	if err := mustVerify(st); err != nil {
		t.Fatal(err)
	}
}
