package core

import (
	"math"
	"sort"

	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// buildGreedy is the heuristic comparator suggested by the paper's
// discussion of Cost(e): reinforcement is most valuable on edges with many
// users, i.e. the tree edges whose failure requires the largest fan of new
// last edges. Greedy therefore
//
//  1. computes for every tree edge e the fan F(e) = distinct last edges of
//     the uncovered pairs protecting e,
//  2. reinforces the (at most budget) edges with the largest |F(e)|,
//  3. buys the fans of every remaining edge as backup.
//
// The result is a valid (b,r) FT-BFS structure (every unreinforced edge is
// last-protected by construction); it is an upper-bound heuristic, not the
// paper's algorithm — experiment E9 compares the two.
//
// The reinforcement computed by the caller's sweep is the exact
// last-unprotected set, which is the greedily chosen set minus any edge whose
// fan turned out covered by other additions — the minimal set rather than the
// nominal one.
func greedyEdges(en *replacement.Engine, eps float64, opt Options) (*graph.EdgeSet, BuildStats) {
	n := en.G.N()
	budget := opt.GreedyBudget
	if budget <= 0 {
		budget = int(math.Ceil(math.Pow(float64(n), 1-eps)))
	}

	// fans per failing tree edge
	fans := make(map[graph.EdgeID]map[graph.EdgeID]bool)
	for _, p := range en.AllPairs() {
		f := fans[p.Edge]
		if f == nil {
			f = make(map[graph.EdgeID]bool)
			fans[p.Edge] = f
		}
		f[p.LastID] = true
	}
	type fanSize struct {
		e    graph.EdgeID
		size int
	}
	order := make([]fanSize, 0, len(fans))
	for e, f := range fans {
		order = append(order, fanSize{e, len(f)})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].size != order[j].size {
			return order[i].size > order[j].size
		}
		return order[i].e < order[j].e
	})

	reinforce := graph.NewEdgeSet(en.G.M())
	for i := 0; i < len(order) && i < budget; i++ {
		reinforce.Add(order[i].e)
	}

	h, _ := backupEdges(en, reinforce)
	return h, BuildStats{Algorithm: Greedy.String()}
}

// BuildReinforcing constructs a structure that reinforces (up to) the given
// candidate tree edges and buys, as backup, the last edges of every
// uncovered pair protecting a non-candidate edge. This is the "oracle
// reinforcement" used by the lower-bound experiments: on the Theorem 5.1
// instances, reinforcing exactly the costly path edges Π collapses the
// backup volume from Θ(n^{1+ε}) to near-linear. Candidates that turn out
// protected anyway are not reinforced.
func BuildReinforcing(g *graph.Graph, s int, candidates []graph.EdgeID) (*Structure, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	en := replacement.NewEngine(g, s)
	cand := graph.NewEdgeSet(g.M())
	for _, e := range candidates {
		cand.Add(e)
	}
	h, _ := backupEdges(en, cand)
	return &Structure{
		G:          g,
		S:          s,
		Edges:      h,
		Reinforced: LastUnprotectedMulti(en, []*graph.EdgeSet{h})[0],
		Stats:      BuildStats{Algorithm: "reinforce-set"},
	}, nil
}
