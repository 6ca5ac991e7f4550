package ftbfs

import (
	"fmt"

	"ftbfs/internal/core"
	"ftbfs/internal/graph"
)

// MutationOp selects the kind of one edge mutation.
type MutationOp int

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

// Mutation is one edge insert or delete applied by Graph.Mutate.
type Mutation struct {
	Op   MutationOp
	U, V int
}

// GraphDelta describes how one Mutate call changed a graph: which edges of
// the old generation survived (and under which new EdgeIDs) and whether the
// batch inserted anything. It is the input DeltaRebuild needs to decide
// whether an existing structure can be carried to the new generation without
// rebuilding.
type GraphDelta struct {
	remap     []graph.EdgeID // old EdgeID → new EdgeID, NoEdge for deleted
	survivors int            // count of non-NoEdge entries in remap
	newM      int
}

// Inserted reports whether the batch's net effect includes at least one new
// edge (an insert that was deleted again in the same batch does not count).
func (d *GraphDelta) Inserted() bool { return d.newM > d.survivors }

// Generation returns how many mutation batches separate g from its original
// build. A graph constructed with NewGraph or ReadGraph is generation 0
// unless the file it was read from recorded a later generation.
func (g *Graph) Generation() uint64 { return g.g.Generation() }

// Lineage returns the identity shared by every generation of this graph: the
// fingerprint of its generation-0 ancestor. Registries and the cluster ring
// key graphs by lineage, so mutating a graph never moves its structures to
// different shards; Fingerprint, by contrast, changes with every generation.
func (g *Graph) Lineage() uint64 { return g.g.Lineage() }

// Mutate applies a batch of edge mutations and returns the next generation
// of the graph plus the delta connecting the two. The receiver is frozen (if
// it was not already) and left untouched — structures built from it keep
// serving while the new generation is prepared; Generation() of the result
// is one higher, Lineage() is unchanged, and Fingerprint() is derived
// incrementally from the batch. An invalid mutation (out-of-range endpoint,
// self-loop, inserting a present edge, deleting an absent one) fails the
// whole batch and no new generation exists.
func (g *Graph) Mutate(muts []Mutation) (*Graph, *GraphDelta, error) {
	g.g.Freeze()
	ims := make([]graph.Mutation, len(muts))
	for i, m := range muts {
		if m.Op != MutInsert && m.Op != MutDelete {
			return nil, nil, fmt.Errorf("ftbfs: mutation %d: unknown op %d", i, m.Op)
		}
		ims[i] = graph.Mutation{Op: graph.MutationOp(m.Op), U: m.U, V: m.V}
	}
	next, remap, err := g.g.Apply(ims)
	if err != nil {
		return nil, nil, err
	}
	d := &GraphDelta{remap: remap, newM: next.M()}
	for _, id := range remap {
		if id != graph.NoEdge {
			d.survivors++
		}
	}
	return &Graph{g: next}, d, nil
}

// DeltaRebuild carries an edge structure built on the previous generation
// over to the mutated graph g without rebuilding, when the mutation provably
// cannot have changed anything the structure answers with. ok is false — and
// the caller must run a full Build against g — whenever the fast path does
// not apply.
//
// The fast path applies exactly when the batch only DELETED edges, none of
// which belong to E(H). Then H ⊆ G_new ⊆ G_old, so for every vertex v and
// every failing edge e: dist_H(s,v) = dist_G_old(s,v) ≤ dist_G_new(s,v) ≤
// dist_H(s,v) — the intact distances, the canonical BFS tree T0 (whose edges
// all live in H, hence all survive) and every replacement path of the
// structure are exactly as valid for the new generation as they were for the
// old. All the structure needs is a re-keying of its edge sets onto the new
// generation's EdgeIDs, plus a fresh O(n + |E(H)|) serving plan — no
// decomposition, no replacement-path search, no reinforcement sweep.
//
// Inserts always force a full rebuild (a new edge can shorten replacement
// paths, invalidating the structure's optimality), as does deleting any edge
// of H. Vertex structures have no delta path; mutation always rebuilds them.
func DeltaRebuild(old *Structure, g *Graph, d *GraphDelta) (*Structure, bool) {
	if old == nil || d == nil || d.Inserted() || len(d.remap) != old.st.G.M() {
		return nil, false
	}
	for id, nid := range d.remap {
		if nid == graph.NoEdge && old.st.Edges.Contains(graph.EdgeID(id)) {
			return nil, false
		}
	}
	translate := func(set *graph.EdgeSet) *graph.EdgeSet {
		out := graph.NewEdgeSet(g.M())
		set.ForEach(func(id graph.EdgeID) {
			// Eligibility guaranteed every H edge survived, so the remap of
			// any member is a real id.
			out.Add(d.remap[id])
		})
		return out
	}
	cs := &core.Structure{
		G:          g.g,
		S:          old.st.S,
		Eps:        old.st.Eps,
		Edges:      translate(old.st.Edges),
		Reinforced: translate(old.st.Reinforced),
		TreeEdges:  translate(old.st.TreeEdges),
		Stats:      old.st.Stats, // diagnostics of the original build
	}
	s := newStructure(cs)
	// The intact distance vector is per-vertex, not per-edge-id, and the
	// theorem above says it is unchanged — seed it so the carry-over never
	// reruns the intact BFS.
	intact := old.intactDistances()
	s.intactOnce.Do(func() { s.intactDist = intact })
	// The serving plan, by contrast, is keyed by EdgeID (CSR arcs, tree
	// arrays, the edgeChild index), so it must be rebuilt — but Plan() is a
	// CSR extraction plus two linear passes over H, the cheap part of a
	// build. Doing it eagerly keeps the delta path's cost out of the first
	// query it serves.
	s.Plan()
	return s, true
}
