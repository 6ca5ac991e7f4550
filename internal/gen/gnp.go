// Package gen generates the graph families used by the tests, benchmarks and
// experiments: classical random and structured families plus the paper's
// Section 5 lower-bound constructions (single-source Theorem 5.1 and
// multi-source Theorem 5.4).
//
// All generators are deterministic given their seed and return frozen
// graphs.
package gen

import (
	"math/rand"

	"ftbfs/internal/graph"
)

// GNP returns an Erdős–Rényi G(n,p) graph.
func GNP(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.Add(u, v)
			}
		}
	}
	return b.Graph()
}

// GNM returns a uniform graph with n vertices and m distinct edges
// (m is clamped to the number of available pairs).
func GNM(n, m int, seed int64) *graph.Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for b.M() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		b.Add(u, v)
	}
	return b.Graph()
}

// RandomTree returns a uniform-ish random tree built by attaching each
// vertex i>0 to a uniformly random earlier vertex.
func RandomTree(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.Add(i, rng.Intn(i))
	}
	return b.Graph()
}

// RandomConnected returns a connected graph: a random spanning tree plus
// `extra` additional random edges (duplicates are skipped, so the final
// edge count is at most n-1+extra).
func RandomConnected(n, extra int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.Add(i, rng.Intn(i))
	}
	for k := 0; k < extra; k++ {
		b.Add(rng.Intn(n), rng.Intn(n))
	}
	return b.Graph()
}

// GNPConnected returns a G(n,p) graph patched into connectivity by linking
// each non-root component head to a random earlier vertex.
func GNPConnected(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.Add(u, v)
			}
		}
	}
	// union-find to locate components
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	g := b.Graph()
	nb := graph.NewBuilder(n)
	for _, e := range g.EdgesView() {
		nb.Add(int(e.U), int(e.V))
		ru, rv := find(int(e.U)), find(int(e.V))
		if ru != rv {
			parent[ru] = rv
		}
	}
	for v := 1; v < n; v++ {
		if find(v) != find(0) {
			u := rng.Intn(v)
			nb.Add(u, v)
			parent[find(v)] = find(u)
		}
	}
	return nb.Graph()
}
