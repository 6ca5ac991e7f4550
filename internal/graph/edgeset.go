package graph

import (
	"fmt"
	"math/bits"
	"slices"
)

// EdgeSet is a dense bitset over the edge ids of a fixed graph. It is the
// workhorse for representing subgraphs H ⊆ G (FT-BFS structures, reinforced
// sets, protected sets) without re-allocating adjacency structures.
type EdgeSet struct {
	bits  []uint64
	count int
}

// NewEdgeSet returns an empty set sized for a graph with m edges.
func NewEdgeSet(m int) *EdgeSet {
	return &EdgeSet{bits: make([]uint64, (m+63)/64)}
}

// Add inserts id. Reports whether the set changed.
func (s *EdgeSet) Add(id EdgeID) bool {
	w, b := id>>6, uint(id&63)
	if s.bits[w]&(1<<b) != 0 {
		return false
	}
	s.bits[w] |= 1 << b
	s.count++
	return true
}

// Remove deletes id. Reports whether the set changed.
func (s *EdgeSet) Remove(id EdgeID) bool {
	w, b := id>>6, uint(id&63)
	if s.bits[w]&(1<<b) == 0 {
		return false
	}
	s.bits[w] &^= 1 << b
	s.count--
	return true
}

// Contains reports membership of id.
func (s *EdgeSet) Contains(id EdgeID) bool {
	if id < 0 || int(id) >= len(s.bits)*64 {
		return false
	}
	return s.bits[id>>6]&(1<<uint(id&63)) != 0
}

// Len returns the cardinality.
func (s *EdgeSet) Len() int { return s.count }

// Clone returns a deep copy.
func (s *EdgeSet) Clone() *EdgeSet {
	c := &EdgeSet{bits: make([]uint64, len(s.bits)), count: s.count}
	copy(c.bits, s.bits)
	return c
}

// AddSet inserts every element of o into s.
func (s *EdgeSet) AddSet(o *EdgeSet) {
	for w := range o.bits {
		added := o.bits[w] &^ s.bits[w]
		if added != 0 {
			s.bits[w] |= added
			s.count += popcount(added)
		}
	}
}

// Minus returns s \ o as a new set.
func (s *EdgeSet) Minus(o *EdgeSet) *EdgeSet {
	c := &EdgeSet{bits: make([]uint64, len(s.bits))}
	for w := range s.bits {
		var ob uint64
		if w < len(o.bits) {
			ob = o.bits[w]
		}
		c.bits[w] = s.bits[w] &^ ob
		c.count += popcount(c.bits[w])
	}
	return c
}

// Intersect returns s ∩ o as a new set.
func (s *EdgeSet) Intersect(o *EdgeSet) *EdgeSet {
	c := &EdgeSet{bits: make([]uint64, len(s.bits))}
	for w := range s.bits {
		var ob uint64
		if w < len(o.bits) {
			ob = o.bits[w]
		}
		c.bits[w] = s.bits[w] & ob
		c.count += popcount(c.bits[w])
	}
	return c
}

// IDs returns the sorted list of edge ids in the set.
func (s *EdgeSet) IDs() []EdgeID {
	out := make([]EdgeID, 0, s.count)
	for w, word := range s.bits {
		for word != 0 {
			b := word & -word
			out = append(out, EdgeID(w*64+trailingZeros(word)))
			word ^= b
		}
	}
	slices.Sort(out)
	return out
}

// Words exposes the set's backing bit words (little-endian edge ids: bit b
// of word w is edge 64w+b) for zero-copy serialization. The slice is owned
// by the set and must be treated as read-only.
func (s *EdgeSet) Words() []uint64 { return s.bits }

// NewEdgeSetFromWords reconstructs a set over m edge ids from serialized bit
// words, validating that the word count matches m and that no bit beyond the
// last edge id is set — so a deserialized set can never report phantom
// members. The words are copied; the cardinality is recomputed.
func NewEdgeSetFromWords(m int, words []uint64) (*EdgeSet, error) {
	if len(words) != (m+63)/64 {
		return nil, fmt.Errorf("graph: edge set has %d words for %d edges (want %d)", len(words), m, (m+63)/64)
	}
	s := &EdgeSet{bits: make([]uint64, len(words))}
	copy(s.bits, words)
	if tail := m & 63; tail != 0 && len(s.bits) > 0 {
		if s.bits[len(s.bits)-1]&^(1<<uint(tail)-1) != 0 {
			return nil, fmt.Errorf("graph: edge set has bits beyond edge id %d", m-1)
		}
	}
	for _, w := range s.bits {
		s.count += popcount(w)
	}
	return s, nil
}

// ForEach calls fn on every member in increasing id order.
func (s *EdgeSet) ForEach(fn func(EdgeID)) {
	for w, word := range s.bits {
		for word != 0 {
			tz := trailingZeros(word)
			fn(EdgeID(w*64 + tz))
			word &^= 1 << uint(tz)
		}
	}
}

func popcount(x uint64) int      { return bits.OnesCount64(x) }
func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// VertexSet is a dense bitset over vertex ids, used as the banned vertices
// of a restricted BFS (a failed vertex, in the vertex failure model).
type VertexSet struct {
	bits  []uint64
	count int
}

// NewVertexSet returns an empty set sized for n vertices.
func NewVertexSet(n int) *VertexSet {
	return &VertexSet{bits: make([]uint64, (n+63)/64)}
}

// Add inserts v; reports whether the set changed.
func (s *VertexSet) Add(v int32) bool {
	w, b := v>>6, uint(v&63)
	if s.bits[w]&(1<<b) != 0 {
		return false
	}
	s.bits[w] |= 1 << b
	s.count++
	return true
}

// Remove deletes v; reports whether the set changed.
func (s *VertexSet) Remove(v int32) bool {
	w, b := v>>6, uint(v&63)
	if s.bits[w]&(1<<b) == 0 {
		return false
	}
	s.bits[w] &^= 1 << b
	s.count--
	return true
}

// Contains reports membership.
func (s *VertexSet) Contains(v int32) bool {
	if v < 0 || int(v) >= len(s.bits)*64 {
		return false
	}
	return s.bits[v>>6]&(1<<uint(v&63)) != 0
}

// Len returns the cardinality.
func (s *VertexSet) Len() int { return s.count }

// Clear empties the set in O(words).
func (s *VertexSet) Clear() {
	for i := range s.bits {
		s.bits[i] = 0
	}
	s.count = 0
}
