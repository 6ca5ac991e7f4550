package ftbfs

import "sync"

// OraclePool hands out per-goroutine Oracles for one structure of either
// failure model. Oracles are not concurrency-safe (each owns its BFS and
// repair scratches), so a concurrent server checks one out per request and
// returns it afterwards; the pool recycles scratch buffers instead of
// allocating a fresh oracle per query. All oracles of a pool share the
// structure's cached intact distance vector and query plan.
//
// The pool is backed by sync.Pool: idle oracles may be dropped under memory
// pressure and are recreated transparently.
type OraclePool struct {
	s *serving
	p sync.Pool
}

// VertexOraclePool is the name the vertex model's pool was introduced
// under; both models share one OraclePool.
type VertexOraclePool = OraclePool

// Get checks an oracle out of the pool, allocating one if the pool is empty.
// Return it with Put when the query burst is done.
func (p *OraclePool) Get() *Oracle { return p.p.Get().(*Oracle) }

// Put returns an oracle to the pool, folding its plan-path counts into the
// process-wide totals of the structure's failure model. Only oracles of the
// pool's own structure are accepted; foreign oracles are dropped (their
// scratch is sized for a different graph).
func (p *OraclePool) Put(o *Oracle) {
	if o == nil || o.st != p.s {
		return
	}
	o.flushPlanCounts()
	p.p.Put(o)
}

// Do checks out an oracle, runs f with it, and returns it to the pool. The
// oracle must not escape f.
func (p *OraclePool) Do(f func(*Oracle) error) error {
	o := p.Get()
	defer p.Put(o)
	return f(o)
}
