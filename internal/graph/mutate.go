package graph

import "fmt"

// MutationOp selects the kind of one edge mutation.
type MutationOp uint8

const (
	// MutInsert adds an edge that must not currently exist.
	MutInsert MutationOp = iota
	// MutDelete removes an edge that must currently exist.
	MutDelete
)

// String implements fmt.Stringer.
func (op MutationOp) String() string {
	if op == MutDelete {
		return "delete"
	}
	return "insert"
}

// Mutation is one edge insert or delete. Endpoints follow AddEdge's rules:
// in range, no self-loops.
type Mutation struct {
	Op   MutationOp
	U, V int
}

// Apply applies a batch of mutations to a frozen graph and returns the next
// generation: a new frozen graph with Generation() = g.Generation()+1, the
// same Lineage(), and an incrementally derived Fingerprint(). g itself is
// untouched — old-generation structures keep serving from it while the new
// generation builds.
//
// Mutations apply sequentially, so a batch may delete an edge and re-insert
// it (the re-inserted edge gets a NEW EdgeID) or insert one and delete it
// again. Surviving original edges are re-added in their original insertion
// order, then surviving inserts in batch order, so EdgeIDs stay dense.
// remap translates g's EdgeIDs into the new graph's (NoEdge for deleted
// edges); structure delta-rebuilds use it to carry edge sets across.
//
// Any invalid mutation (out-of-range endpoint, self-loop, inserting a
// present edge, deleting an absent one) fails the whole batch: Apply returns
// an error and no new generation exists.
func (g *Graph) Apply(muts []Mutation) (next *Graph, remap []EdgeID, err error) {
	if g.csr == nil {
		panic("graph: Apply before Freeze")
	}
	if len(muts) == 0 {
		return nil, nil, fmt.Errorf("graph: empty mutation batch")
	}
	// Walk the batch sequentially against a view of "current" edge presence:
	// original edges minus deletions, plus still-alive inserts.
	deleted := make(map[EdgeID]bool)
	type ins struct {
		e     Edge
		alive bool
	}
	var inserts []ins
	insByKey := make(map[int64]int) // key(u,v) -> index of the live insert
	for i, m := range muts {
		if m.U == m.V {
			return nil, nil, fmt.Errorf("graph: mutation %d: self-loop at vertex %d", i, m.U)
		}
		if m.U < 0 || m.V < 0 || m.U >= int(g.n) || m.V >= int(g.n) {
			return nil, nil, fmt.Errorf("graph: mutation %d: edge {%d,%d} out of range [0,%d)", i, m.U, m.V, g.n)
		}
		k := g.key(int32(m.U), int32(m.V))
		id, inOrig := g.lookup[k]
		origAlive := inOrig && !deleted[id]
		insIdx, hasIns := insByKey[k]
		switch m.Op {
		case MutInsert:
			if origAlive || hasIns {
				return nil, nil, fmt.Errorf("graph: mutation %d: insert of existing edge {%d,%d}", i, m.U, m.V)
			}
			insByKey[k] = len(inserts)
			inserts = append(inserts, ins{e: Edge{int32(m.U), int32(m.V)}, alive: true})
		case MutDelete:
			switch {
			case hasIns:
				inserts[insIdx].alive = false
				delete(insByKey, k)
			case origAlive:
				deleted[id] = true
			default:
				return nil, nil, fmt.Errorf("graph: mutation %d: delete of absent edge {%d,%d}", i, m.U, m.V)
			}
		default:
			return nil, nil, fmt.Errorf("graph: mutation %d: unknown op %d", i, m.Op)
		}
	}

	next = New(int(g.n))
	remap = make([]EdgeID, len(g.edges))
	for id, e := range g.edges {
		if deleted[EdgeID(id)] {
			remap[id] = NoEdge
			continue
		}
		nid, aerr := next.AddEdge(int(e.U), int(e.V))
		if aerr != nil {
			return nil, nil, aerr // unreachable: the source graph had no duplicates
		}
		remap[id] = nid
	}
	for _, in := range inserts {
		if !in.alive {
			continue
		}
		if _, aerr := next.AddEdge(int(in.e.U), int(in.e.V)); aerr != nil {
			return nil, nil, aerr // unreachable: presence was checked above
		}
	}

	// Stamp the child's identity before Freeze so Freeze adopts it instead
	// of recomputing: generation advances, lineage is inherited, and the
	// fingerprint mixes the parent's with the batch — O(batch) per
	// generation, with insert/delete of the same edge hashing differently.
	gen := g.gen + 1
	h := g.Fingerprint()
	h = fnvMix(h, gen)
	h = fnvMix(h, uint64(len(muts)))
	for _, m := range muts {
		h = fnvMix(h, uint64(m.Op))
		u, v := m.U, m.V
		if u > v {
			u, v = v, u
		}
		h = fnvMix(h, uint64(uint32(u))<<32|uint64(uint32(v)))
	}
	next.setIdentity(gen, g.Lineage(), h)
	next.Freeze()
	return next, remap, nil
}
