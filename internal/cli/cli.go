// Package cli implements the ftbfs command-line tool (the thin binary in
// cmd/ftbfs delegates here so the commands are unit-testable).
//
// Subcommands:
//
//	gen      generate a graph family in the text format
//	build    build an ε FT-BFS structure (optionally save / render / verify)
//	sweep    price the tradeoff per ε and report the cheapest point
//	verify   exhaustively check a built or saved structure
//	vertexft build and verify a vertex fault-tolerant structure
//	serve    run the HTTP/JSON failure-query service (internal/server)
//	route    front a shard cluster with a consistent-hash router (internal/cluster)
package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"ftbfs/internal/batch"
	"ftbfs/internal/core"
	"ftbfs/internal/expstats"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
	"ftbfs/internal/vertexft"
)

// Main dispatches the subcommand and returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "gen":
		err = cmdGen(args[1:], stdout)
	case "build":
		err = cmdBuild(args[1:], stdout)
	case "sweep":
		err = cmdSweep(args[1:], stdout)
	case "verify":
		err = cmdVerify(args[1:], stdout)
	case "vertexft":
		err = cmdVertexFT(args[1:], stdout)
	case "serve":
		err = cmdServe(args[1:], stdout)
	case "route":
		err = cmdRoute(args[1:], stdout)
	case "-h", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "ftbfs: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "ftbfs: %v\n", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: ftbfs <subcommand> [flags]

  gen      -family gnp|gnm|grid|cycle|hypercube|random|cliquechain|lowerbound
           -n N [-p P] [-m M] [-eps E] [-seed S] [-o FILE]
  build    -in FILE -source S -eps E [-alg auto|tree|baseline|epsilon|greedy]
           [-workers W] [-save FILE] [-dot FILE] [-verify]
  sweep    -in FILE -source S [-grid "0,0.25,0.5,1"] [-B 1] [-R 10] [-csv]
  verify   -in FILE -source S (-eps E | -structure FILE)
  vertexft -in FILE -source S [-verify] [-save FILE]
  serve    [-addr :8080] [-dir DIR] [-cap N] [-shard -wire :8090] [-id NAME]
           [-drain-grace 0s] [-pprof localhost:6060]
           [-in FILE [-sources "0,5"] [-eps "0.25,0.5"] [-alg auto]
           [-vertex-sources "0,5"]]
  route    -shards "s0=host:port,s1=host:port" [-addr :8081] [-replication 2]
           [-vnodes 64] [-hedge 3ms] [-probe 2s] [-drain-grace 0s]
           [-hot-extra K] [-hot-min-hits N] [-hot-interval 30s]
           [-trace-sample N] [-pprof localhost:6061]

serve answers edge failures on /dist-avoiding and vertex failures on
/dist-avoiding-vertex (vertex structures build through the store on first
use; -vertex-sources pre-builds them for -in). route proxies both query
surfaces over the same consistent-hash ring, reaching shards over the
binary protocol (serve -shard -wire); -hot-extra promotes the hottest keys
to replication+K replicas via shard-to-shard handoff.

FILE "-" means stdin/stdout.`)
}

func readGraph(path string) (*graph.Graph, error) {
	var r io.Reader
	if path == "-" || path == "" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return graph.Decode(r)
}

func openOut(path string, stdout io.Writer) (io.Writer, func() error, error) {
	if path == "-" || path == "" {
		return stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func cmdGen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	family := fs.String("family", "gnp", "graph family")
	n := fs.Int("n", 100, "vertex count (target)")
	p := fs.Float64("p", 0.05, "edge probability (gnp)")
	m := fs.Int("m", 0, "edge count (gnm; 0 = 4n)")
	eps := fs.Float64("eps", 0.25, "construction ε (lowerbound)")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "-", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *graph.Graph
	switch *family {
	case "gnp":
		g = gen.GNPConnected(*n, *p, *seed)
	case "gnm":
		mm := *m
		if mm == 0 {
			mm = 4 * *n
		}
		g = gen.GNM(*n, mm, *seed)
	case "grid":
		side := int(math.Sqrt(float64(*n)))
		if side < 1 {
			side = 1
		}
		g = gen.Grid(side, side)
	case "cycle":
		g = gen.Cycle(*n)
	case "hypercube":
		d := 0
		for 1<<uint(d+1) <= *n {
			d++
		}
		g = gen.Hypercube(d)
	case "random":
		g = gen.RandomConnected(*n, 2**n, *seed)
	case "cliquechain":
		g = gen.CliqueChain(*n)
	case "lowerbound":
		g = gen.LowerBound(*n, *eps).G
	default:
		return fmt.Errorf("unknown family %q", *family)
	}
	w, closeFn, err := openOut(*out, stdout)
	if err != nil {
		return err
	}
	if err := graph.Encode(w, g); err != nil {
		closeFn()
		return err
	}
	return closeFn()
}

func cmdBuild(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	in := fs.String("in", "-", "input graph (text format), - for stdin")
	source := fs.Int("source", 0, "BFS source")
	eps := fs.Float64("eps", 0.25, "tradeoff parameter ε")
	algName := fs.String("alg", "auto", "algorithm: auto|tree|baseline|epsilon|greedy")
	workers := fs.Int("workers", 0, "parallel reinforcement sweep (0 = sequential, -1 = all cores)")
	save := fs.String("save", "", "write the structure to file")
	dot := fs.String("dot", "", "write Graphviz rendering to file")
	verify := fs.Bool("verify", false, "exhaustively verify the contract (slow)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := readGraph(*in)
	if err != nil {
		return err
	}
	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		return err
	}
	st, err := core.Build(g, *source, *eps, core.Options{Algorithm: alg, Workers: *workers})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, st)
	fmt.Fprintf(stdout, "phases: uncovered=%d I1=%d I2=%d S1+=%d S2+=%d glue+=%d leftovers=%d\n",
		st.Stats.UncoveredPairs, st.Stats.I1Size, st.Stats.I2Size,
		st.Stats.S1Added, st.Stats.S2Added, st.Stats.S2GlueAdded, st.Stats.S1Leftover)
	if *save != "" {
		w, closeFn, err := openOut(*save, stdout)
		if err != nil {
			return err
		}
		if err := core.EncodeStructure(w, st); err != nil {
			closeFn()
			return err
		}
		if err := closeFn(); err != nil {
			return err
		}
	}
	if *dot != "" {
		w, closeFn, err := openOut(*dot, stdout)
		if err != nil {
			return err
		}
		if err := graph.WriteDOT(w, g, graph.DOTOptions{
			Structure: st.Edges, Reinforced: st.Reinforced, Source: *source,
		}); err != nil {
			closeFn()
			return err
		}
		if err := closeFn(); err != nil {
			return err
		}
	}
	if *verify {
		if viol := core.Verify(st, 5); len(viol) > 0 {
			return fmt.Errorf("contract violated: %v", viol)
		}
		fmt.Fprintln(stdout, "verified: contract holds for every non-reinforced edge")
	}
	return nil
}

func cmdSweep(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	in := fs.String("in", "-", "input graph")
	source := fs.Int("source", 0, "BFS source")
	gridSpec := fs.String("grid", "0,0.125,0.25,0.375,0.5,1", "comma-separated ε grid")
	bPrice := fs.Float64("B", 1, "backup edge price")
	rPrice := fs.Float64("R", 10, "reinforced edge price")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := readGraph(*in)
	if err != nil {
		return err
	}
	var grid []float64
	for _, part := range strings.Split(*gridSpec, ",") {
		x, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("bad grid entry %q", part)
		}
		grid = append(grid, x)
	}
	points, best, err := batch.CostSweep(g, *source, grid, *bPrice, *rPrice, batch.Options{})
	if err != nil {
		return err
	}
	t := expstats.NewTable(fmt.Sprintf("cost sweep (B=%g R=%g, n=%d m=%d)", *bPrice, *rPrice, g.N(), g.M()),
		"eps", "backup", "reinforced", "cost", "best")
	for i, p := range points {
		mark := ""
		if i == best {
			mark = "*"
		}
		t.AddRow(p.Eps, p.Backup, p.Reinforced, p.Cost, mark)
	}
	if *csv {
		t.RenderCSV(stdout)
	} else {
		t.Render(stdout)
	}
	fmt.Fprintf(stdout, "predicted optimal ε ≈ %.3f\n", core.PredictedOptimalEps(g.N(), *bPrice, *rPrice))
	return nil
}

func cmdVerify(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	in := fs.String("in", "-", "input graph")
	source := fs.Int("source", 0, "BFS source")
	eps := fs.Float64("eps", 0.25, "tradeoff parameter ε (ignored with -structure)")
	structPath := fs.String("structure", "", "verify a saved structure instead of building one")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := readGraph(*in)
	if err != nil {
		return err
	}
	var st *core.Structure
	if *structPath != "" {
		f, err := os.Open(*structPath)
		if err != nil {
			return err
		}
		st, err = core.DecodeStructure(f, g)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		st, err = core.Build(g, *source, *eps, core.Options{})
		if err != nil {
			return err
		}
	}
	viol := core.Verify(st, 10)
	if len(viol) > 0 {
		for _, v := range viol {
			fmt.Fprintln(stdout, v)
		}
		return fmt.Errorf("%d violations", len(viol))
	}
	fmt.Fprintf(stdout, "%v\nverified: contract holds\n", st)
	return nil
}

func cmdVertexFT(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vertexft", flag.ContinueOnError)
	in := fs.String("in", "-", "input graph")
	source := fs.Int("source", 0, "BFS source")
	verify := fs.Bool("verify", false, "exhaustively verify the vertex contract")
	save := fs.String("save", "", "write the vertex structure to file (version-2 record)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := readGraph(*in)
	if err != nil {
		return err
	}
	st, err := vertexft.Build(g, *source)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "vertex-ftbfs{n=%d m=%d |H|=%d pairs=%d}\n", g.N(), g.M(), st.Size(), st.Pairs)
	if *save != "" {
		w, closeFn, err := openOut(*save, stdout)
		if err != nil {
			return err
		}
		rec := &core.VertexRecord{S: st.S, Pairs: st.Pairs, Edges: st.Edges}
		if err := core.EncodeVertexRecord(w, g, rec); err != nil {
			closeFn()
			return err
		}
		if err := closeFn(); err != nil {
			return err
		}
	}
	if *verify {
		if viol := vertexft.Verify(st, 5); len(viol) > 0 {
			return fmt.Errorf("vertex contract violated: %v", viol)
		}
		fmt.Fprintln(stdout, "verified: vertex contract holds")
	}
	return nil
}
