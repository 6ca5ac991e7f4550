package core

import "math"

// CostPoint is one row of a cost sweep (batch.CostSweep): the structure
// built at Eps and its deployment cost under the given price pair.
type CostPoint struct {
	Eps        float64
	Backup     int
	Reinforced int
	Cost       float64
}

// PredictedOptimalEps is the paper's closed-form guidance (Section 1): the
// minimum of B·b(n) + R·r(n) ≈ B·n^{1+ε} + R·n^{1−ε} is achieved around
// ε = log(R/B) / (2 log n), clamped to [0, ½]. (Balancing the two terms:
// n^{1+ε}·B = n^{1−ε}·R ⇒ n^{2ε} = R/B.)
func PredictedOptimalEps(n int, backupPrice, reinforcePrice float64) float64 {
	if n < 2 || backupPrice <= 0 || reinforcePrice <= 0 {
		return 0
	}
	eps := math.Log(reinforcePrice/backupPrice) / (2 * math.Log(float64(n)))
	if eps < 0 {
		return 0
	}
	if eps > 0.5 {
		return 0.5
	}
	return eps
}

// DefaultEpsGrid returns the ε grid used by the experiments:
// 0, 1/8, …, ½, ¾, 1.
func DefaultEpsGrid() []float64 {
	return []float64{0, 0.125, 0.25, 0.375, 0.5, 0.75, 1}
}
