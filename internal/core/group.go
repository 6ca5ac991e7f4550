package core

import (
	"fmt"

	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// GroupItem is one build request of a same-source group: the tradeoff
// parameter and its options (algorithm choice, ablations).
type GroupItem struct {
	Eps float64
	Opt Options
}

// ItemError is a BuildGroup failure tagged with the index of the item that
// caused it, so batch callers can attribute the error to the right request.
type ItemError struct {
	Item int
	Err  error
}

func (e *ItemError) Error() string { return fmt.Sprintf("item %d: %v", e.Item, e.Err) }
func (e *ItemError) Unwrap() error { return e.Err }

// BuildGroup constructs one structure per item, all for the engine's (G, S),
// sharing everything that does not depend on ε: the canonical tree carried
// by the engine (and its Fact 3.3 decomposition, once Phase S2 adds it),
// the memoised Phase S0 replacement-path pairs with their interference
// index and Phase S2 scratch, and — the big win — a single
// LastUnprotectedMulti reinforcement sweep covering every item instead of
// one sweep per item. Build is a group of one item; sharing changes no
// output, so each returned structure is identical (the same ε, E(H), E′
// and BuildStats) to the one Build returns for the same (G, S, eps,
// options).
func BuildGroup(en *replacement.Engine, items []GroupItem) ([]*Structure, error) {
	hs := make([]*graph.EdgeSet, len(items))
	stats := make([]BuildStats, len(items))
	sh := &sharedS0{} // Phase S0 products shared by every ε of the group
	for i, it := range items {
		h, st, err := buildEdges(en, it.Eps, it.Opt, sh)
		if err != nil {
			return nil, &ItemError{Item: i, Err: err}
		}
		hs[i], stats[i] = h, st
	}
	unprotected := LastUnprotectedMulti(en, hs)
	out := make([]*Structure, len(items))
	for i := range items {
		out[i] = &Structure{
			G:          en.G,
			S:          en.S,
			Eps:        items[i].Eps,
			Edges:      hs[i],
			Reinforced: unprotected[i],
			Stats:      stats[i],
		}
	}
	return out, nil
}
