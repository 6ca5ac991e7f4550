package ftbfs

import "ftbfs/internal/telemetry"

// Process-wide query-plan path totals per failure model (indexed by
// edgeModel and vertexModel): how many failure queries were answered O(1)
// from the cached intact vector (hits) vs through a subtree repair search.
// Oracles count in plain per-oracle fields — the plan query path is ~30 ns
// and must not pay an atomic op — and the pool folds those into these totals
// when an oracle is checked back in, i.e. once per served request rather
// than once per query. Direct (non-pooled) oracle users such as benchmarks
// never flush and never pay. The counters are standalone telemetry.Counter
// values (not registered here — this package must not depend on any
// registry); serving layers adopt them as CounterFuncs via PlanQueryCounts.
var planHits, planRepairs [2]telemetry.Counter

// flushPlanCounts folds the oracle's plan-path counts into the totals of
// its structure's failure model and resets them.
func (o *Oracle) flushPlanCounts() {
	if o.planHits != 0 {
		planHits[o.st.model].Add(o.planHits)
		o.planHits = 0
	}
	if o.planRepairs != 0 {
		planRepairs[o.st.model].Add(o.planRepairs)
		o.planRepairs = 0
	}
}

// PlanQueryCounts returns the process-wide plan-path totals: edge-failure
// and vertex-failure queries answered from the intact vector (plan hits)
// vs through a repair run. Serving layers register these as telemetry
// counter funcs; the numbers cover every pooled oracle in the process.
func PlanQueryCounts() (edgeHits, edgeRepairs, vertexHits, vertexRepairs uint64) {
	return planHits[edgeModel].Value(), planRepairs[edgeModel].Value(),
		planHits[vertexModel].Value(), planRepairs[vertexModel].Value()
}
