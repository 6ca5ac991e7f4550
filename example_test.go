package ftbfs_test

import (
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"

	"ftbfs"
)

// Build a structure over a ring with one chord and inspect the split.
func ExampleBuild() {
	g := ftbfs.NewGraph(6)
	for i := 0; i < 6; i++ {
		g.MustAddEdge(i, (i+1)%6)
	}
	g.MustAddEdge(0, 3)

	st, err := ftbfs.Build(g, 0, 0.25)
	if err != nil {
		panic(err)
	}
	fmt.Println("edges:", st.Size())
	fmt.Println("reinforced:", st.ReinforcedCount())
	fmt.Println(st.Verify() == nil)
	// Output:
	// edges: 7
	// reinforced: 0
	// true
}

// Simulate a failure and compare against the damaged network.
func ExampleStructure_Oracle() {
	g := ftbfs.NewGraph(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 0)

	st, _ := ftbfs.Build(g, 0, 1)
	o := st.Oracle()
	inH, _ := o.DistAvoiding(1, 0, 1) // fail edge {0,1}, ask for vertex 1
	inG, _ := o.BaselineDistAvoiding(1, 0, 1)
	fmt.Println(inH, inG)
	// Output:
	// 3 3
}

// Pick ε from per-edge prices.
func ExamplePredictOptimalEpsilon() {
	fmt.Printf("%.2f\n", ftbfs.PredictOptimalEpsilon(10000, 1, 100))
	// Output:
	// 0.25
}

// Build a fault-tolerant BFS structure over a small mesh network, inspect
// the backup/reinforced split, verify the contract, and simulate a failure
// with the oracle.
func Example_quickstart() {
	// A 4×4 grid network with a few express links.
	const side = 4
	g := ftbfs.NewGraph(side * side)
	at := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				g.MustAddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < side {
				g.MustAddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	g.MustAddEdge(at(0, 0), at(3, 3)) // express link
	g.MustAddEdge(at(0, 3), at(3, 0))

	// Build the structure from the top-left corner with ε = 0.25.
	st, err := ftbfs.Build(g, at(0, 0), 0.25)
	if err != nil {
		panic(err)
	}
	fmt.Println(st)
	fmt.Printf("backup edges: %d, reinforced edges: %d (of %d graph edges)\n",
		st.BackupCount(), st.ReinforcedCount(), g.M())

	// The contract: after any single backup-edge failure, every
	// source-to-node distance in the surviving structure matches the
	// distance in the surviving network.
	if err := st.Verify(); err != nil {
		panic(err)
	}
	fmt.Println("verified: distances survive every single backup-edge failure")

	// Simulate a failure of the first backup edge and compare distances.
	oracle := st.Oracle()
	for _, e := range st.Edges() {
		if st.IsReinforced(e[0], e[1]) {
			continue
		}
		target := at(3, 3)
		inH, err := oracle.DistAvoiding(target, e[0], e[1])
		if err != nil {
			panic(err)
		}
		inG, err := oracle.BaselineDistAvoiding(target, e[0], e[1])
		if err != nil {
			panic(err)
		}
		fmt.Printf("failure of {%d,%d}: dist(source, %d) = %d in H, %d in full network\n",
			e[0], e[1], target, inH, inG)
		break
	}
	// Output:
	// ftbfs{n=16 m=26 |H|=23 backup=23 reinforced=0 ε=0.25 alg=epsilon}
	// backup edges: 23, reinforced edges: 0 (of 26 graph edges)
	// verified: distances survive every single backup-edge failure
	// failure of {0,1}: dist(source, 15) = 1 in H, 1 in full network
}

// tradeoffNetwork mirrors the paper's lower-bound gadget (Fig. 10): copies
// fragile backbone paths of length depth from vertex 0, whose j'th edge,
// when it fails, forces a distinct fan of exchange links. Escape paths have
// decreasing lengths 6 + 2(depth−j), so exactly one escape is optimal per
// failure.
func tradeoffNetwork(copies, depth, exchange int) *ftbfs.Graph {
	perCopy := (depth + 1) + (depth*depth + 5*depth) + exchange
	g := ftbfs.NewGraph(1 + copies*perCopy)
	next := 1
	alloc := func(c int) []int {
		out := make([]int, c)
		for i := range out {
			out[i] = next
			next++
		}
		return out
	}
	for i := 0; i < copies; i++ {
		spine := alloc(depth + 1)
		g.MustAddEdge(0, spine[0])
		for j := 0; j+1 <= depth; j++ {
			g.MustAddEdge(spine[j], spine[j+1])
		}
		hubs := make([]int, depth)
		for j := 1; j <= depth; j++ {
			esc := alloc(6 + 2*(depth-j))
			prev := spine[j-1]
			for _, w := range esc {
				g.MustAddEdge(prev, w)
				prev = w
			}
			hubs[j-1] = prev
		}
		for _, x := range alloc(exchange) {
			g.MustAddEdge(spine[depth], x)
			for _, h := range hubs {
				g.MustAddEdge(x, h)
			}
		}
	}
	return g
}

// Sweep ε on an adversarial network and print the reinforcement-backup
// curve of Theorem 3.1: few reinforced edges demand many backup edges and
// vice versa.
func ExampleBuild_tradeoff() {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "eps\t|H|\tbackup\treinforced\tcost(B=1,R=50)")
	for _, eps := range []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5, 1} {
		st, err := ftbfs.Build(tradeoffNetwork(4, 8, 30), 0, eps)
		if err != nil {
			panic(err)
		}
		if err := st.Verify(); err != nil {
			panic(fmt.Sprintf("eps=%g: %v", eps, err))
		}
		fmt.Fprintf(w, "%.2f\t%d\t%d\t%d\t%.0f\n",
			eps, st.Size(), st.BackupCount(), st.ReinforcedCount(), st.Cost(1, 50))
	}
	w.Flush()
	fmt.Println("\nsmall ε → reinforce the backbone and buy few fans;")
	fmt.Println("large ε → buy the redundant fans and reinforce nothing")
	// Output:
	// eps   |H|   backup  reinforced  cost(B=1,R=50)
	// 0.00  572   4       568         28404
	// 0.05  1196  1184    12          1784
	// 0.10  1196  1184    12          1784
	// 0.20  1532  1532    0           1532
	// 0.30  1532  1532    0           1532
	// 0.50  1532  1532    0           1532
	// 1.00  1532  1532    0           1532
	//
	// small ε → reinforce the backbone and buy few fans;
	// large ε → buy the redundant fans and reinforce nothing
}

// A rent-or-buy planning session: given per-edge prices for fault-prone
// backup links and fail-proof reinforced links, sweep ε, pick the cheapest
// deployment, and compare the measured optimum with the paper's
// closed-form prediction ε* ≈ log(R/B) / (2 log n).
func ExampleSweepCost() {
	// A metro network: ring backbone, two data-center meshes, random
	// access links.
	rng := rand.New(rand.NewSource(7))
	const n = 120
	g := ftbfs.NewGraph(n)
	for i := 0; i < 40; i++ { // backbone ring
		g.MustAddEdge(i, (i+1)%40)
	}
	for dc := 0; dc < 2; dc++ { // two meshes of 20 hanging off the ring
		base := 40 + dc*20
		for i := 0; i < 20; i++ {
			for j := i + 1; j < 20; j++ {
				if rng.Float64() < 0.3 {
					g.MustAddEdge(base+i, base+j)
				}
			}
		}
		g.MustAddEdge(dc*17, base) // uplink
		g.MustAddEdge(dc*17+5, base+1)
	}
	for v := 80; v < n; v++ { // access nodes
		g.MustAddEdge(v, rng.Intn(40))
		g.MustAddEdge(v, rng.Intn(v))
	}

	const source = 0
	for _, prices := range [][2]float64{{1, 5}, {1, 40}, {1, 400}} {
		backupPrice, reinforcePrice := prices[0], prices[1]
		points, best, err := ftbfs.SweepCost(g, source, nil, backupPrice, reinforcePrice)
		if err != nil {
			panic(err)
		}
		fmt.Printf("prices: backup=%.0f reinforced=%.0f (R/B=%.0f)\n",
			backupPrice, reinforcePrice, reinforcePrice/backupPrice)
		// The last cell is not tab-terminated, so tabwriter pads no line
		// with trailing spaces.
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  eps\tbackup\treinforced\tcost")
		for i, p := range points {
			mark := ""
			if i == best {
				mark = "  ← cheapest"
			}
			fmt.Fprintf(w, "  %.3f\t%d\t%d\t%.0f%s\n", p.Eps, p.Backup, p.Reinforced, p.Cost, mark)
		}
		w.Flush()
		fmt.Printf("  paper's prediction: ε* ≈ %.3f\n\n",
			ftbfs.PredictOptimalEpsilon(g.N(), backupPrice, reinforcePrice))
	}
	// Output:
	// prices: backup=1 reinforced=5 (R/B=5)
	//   eps    backup  reinforced  cost
	//   0.000  1       118         591
	//   0.125  199     0           199  ← cheapest
	//   0.250  199     0           199
	//   0.375  199     0           199
	//   0.500  199     0           199
	//   0.750  199     0           199
	//   1.000  199     0           199
	//   paper's prediction: ε* ≈ 0.168
	//
	// prices: backup=1 reinforced=40 (R/B=40)
	//   eps    backup  reinforced  cost
	//   0.000  1       118         4721
	//   0.125  199     0           199  ← cheapest
	//   0.250  199     0           199
	//   0.375  199     0           199
	//   0.500  199     0           199
	//   0.750  199     0           199
	//   1.000  199     0           199
	//   paper's prediction: ε* ≈ 0.385
	//
	// prices: backup=1 reinforced=400 (R/B=400)
	//   eps    backup  reinforced  cost
	//   0.000  1       118         47201
	//   0.125  199     0           199  ← cheapest
	//   0.250  199     0           199
	//   0.375  199     0           199
	//   0.500  199     0           199
	//   0.750  199     0           199
	//   1.000  199     0           199
	//   paper's prediction: ε* ≈ 0.500
}

// Protect BFS distances from several data centers at once (the FT-MBFS
// setting), and compare the union structure with independent per-source
// deployments.
func ExampleBuildMulti() {
	const n = 150
	network := func() *ftbfs.Graph {
		r := rand.New(rand.NewSource(3))
		g := ftbfs.NewGraph(n)
		for i := 1; i < n; i++ {
			g.MustAddEdge(i, r.Intn(i))
		}
		for k := 0; k < 3*n; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		return g
	}

	sources := []int{0, 50, 100}
	const eps = 0.25

	// independent deployments
	total := 0
	for _, s := range sources {
		st, err := ftbfs.Build(network(), s, eps)
		if err != nil {
			panic(err)
		}
		fmt.Printf("source %3d alone: |H|=%d (backup %d, reinforced %d)\n",
			s, st.Size(), st.BackupCount(), st.ReinforcedCount())
		total += st.Size()
	}

	// one shared FT-MBFS structure
	ms, err := ftbfs.BuildMulti(network(), sources, eps)
	if err != nil {
		panic(err)
	}
	if err := ms.Verify(); err != nil {
		panic(err)
	}
	fmt.Printf("\nshared FT-MBFS:  |H|=%d (backup %d, reinforced %d)\n",
		ms.Size(), ms.BackupCount(), ms.ReinforcedCount())
	fmt.Printf("independent sum: %d edges → sharing saves %d edges (%.0f%%)\n",
		total, total-ms.Size(), 100*float64(total-ms.Size())/float64(total))
	// Output:
	// source   0 alone: |H|=286 (backup 286, reinforced 0)
	// source  50 alone: |H|=288 (backup 288, reinforced 0)
	// source 100 alone: |H|=285 (backup 285, reinforced 0)
	//
	// shared FT-MBFS:  |H|=490 (backup 490, reinforced 0)
	// independent sum: 859 edges → sharing saves 369 edges (43%)
}
