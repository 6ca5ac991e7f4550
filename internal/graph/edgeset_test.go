package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEdgeSetBasics(t *testing.T) {
	s := NewEdgeSet(200)
	if s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	if !s.Add(5) || s.Add(5) {
		t.Fatal("Add change-reporting wrong")
	}
	if !s.Contains(5) || s.Contains(6) {
		t.Fatal("Contains wrong")
	}
	if !s.Remove(5) || s.Remove(5) {
		t.Fatal("Remove change-reporting wrong")
	}
	if s.Len() != 0 {
		t.Fatalf("Len=%d after remove", s.Len())
	}
	if s.Contains(-1) || s.Contains(10_000) {
		t.Fatal("out-of-range Contains should be false")
	}
}

func TestEdgeSetIDsSortedAndComplete(t *testing.T) {
	s := NewEdgeSet(500)
	want := []EdgeID{499, 64, 63, 0, 128, 1}
	for _, id := range want {
		s.Add(id)
	}
	got := s.IDs()
	exp := []EdgeID{0, 1, 63, 64, 128, 499}
	if !reflect.DeepEqual(got, exp) {
		t.Fatalf("IDs()=%v want %v", got, exp)
	}
}

func TestEdgeSetAlgebra(t *testing.T) {
	a := NewEdgeSet(300)
	b := NewEdgeSet(300)
	for i := 0; i < 300; i += 2 {
		a.Add(EdgeID(i))
	}
	for i := 0; i < 300; i += 3 {
		b.Add(EdgeID(i))
	}
	inter := a.Intersect(b)
	for _, id := range inter.IDs() {
		if id%6 != 0 {
			t.Fatalf("intersect contains %d", id)
		}
	}
	if inter.Len() != 50 {
		t.Fatalf("intersect len=%d want 50", inter.Len())
	}
	diff := a.Minus(b)
	if diff.Len() != a.Len()-inter.Len() {
		t.Fatalf("minus len=%d", diff.Len())
	}
	u := a.Clone()
	u.AddSet(b)
	if u.Len() != a.Len()+b.Len()-inter.Len() {
		t.Fatalf("union len=%d", u.Len())
	}
}

func TestEdgeSetForEachMatchesIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewEdgeSet(1000)
	for i := 0; i < 300; i++ {
		s.Add(EdgeID(rng.Intn(1000)))
	}
	var walked []EdgeID
	s.ForEach(func(id EdgeID) { walked = append(walked, id) })
	if !reflect.DeepEqual(walked, s.IDs()) {
		t.Fatal("ForEach order disagrees with IDs")
	}
}

// Property: Len always equals the number of distinct added ids minus removed.
func TestEdgeSetLenProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewEdgeSet(1 << 16)
		ref := map[EdgeID]bool{}
		for i, op := range ops {
			id := EdgeID(op)
			if i%3 == 2 {
				s.Remove(id)
				delete(ref, id)
			} else {
				s.Add(id)
				ref[id] = true
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for id := range ref {
			if !s.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexSet(t *testing.T) {
	s := NewVertexSet(100)
	if !s.Add(10) || s.Add(10) {
		t.Fatal("Add reporting")
	}
	s.Add(99)
	if s.Len() != 2 || !s.Contains(99) {
		t.Fatal("vertex set state wrong")
	}
	if !s.Remove(10) || s.Remove(10) {
		t.Fatal("Remove reporting")
	}
	s.Clear()
	if s.Len() != 0 || s.Contains(99) {
		t.Fatal("Clear failed")
	}
	if s.Contains(-3) {
		t.Fatal("negative Contains must be false")
	}
}
