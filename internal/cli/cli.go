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

	"ftbfs"
	"ftbfs/internal/core"
	"ftbfs/internal/expstats"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
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
		// Errors of the root package already carry the "ftbfs: " prefix.
		fmt.Fprintf(stderr, "ftbfs: %s\n", strings.TrimPrefix(err.Error(), "ftbfs: "))
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: ftbfs <subcommand> [flags]

  gen      -family gnp|gnm|grid|cycle|hypercube|random|cliquechain|lowerbound
           -n N [-p P] [-m M] [-eps E] [-seed S] [-o FILE]
  build    -in FILE -source S -eps E [-alg auto|tree|baseline|epsilon|greedy]
           [-save FILE] [-dot FILE] [-verify]
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

build -save and vertexft -save write a binary slab record, the one
structure record format; verify -structure reads one. Graphs stay text.

FILE "-" means stdin/stdout.`)
}

// readGraph reads a graph file in the text format, or stdin for "-".
func readGraph(path string) (*ftbfs.Graph, error) {
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
	return ftbfs.ReadGraph(r)
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
	save := fs.String("save", "", "write the structure to file (slab record)")
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
	st, err := ftbfs.Build(g, *source, *eps, ftbfs.WithAlgorithm(alg))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, st)
	stats := st.Stats()
	fmt.Fprintf(stdout, "phases: uncovered=%d I1=%d I2=%d S1+=%d S2+=%d glue+=%d leftovers=%d\n",
		stats.UncoveredPairs, stats.I1Size, stats.I2Size,
		stats.S1Added, stats.S2Added, stats.S2GlueAdded, stats.S1Leftover)
	if *save != "" {
		if err := writeOut(*save, stdout, st.SaveSlab); err != nil {
			return err
		}
	}
	if *dot != "" {
		if err := writeOut(*dot, stdout, st.WriteDOT); err != nil {
			return err
		}
	}
	if *verify {
		if err := st.Verify(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "verified: contract holds for every non-reinforced edge")
	}
	return nil
}

// writeOut runs write against the named output file ("-" for stdout) and
// closes it.
func writeOut(path string, stdout io.Writer, write func(io.Writer) error) error {
	w, closeFn, err := openOut(path, stdout)
	if err != nil {
		return err
	}
	if err := write(w); err != nil {
		closeFn()
		return err
	}
	return closeFn()
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
	points, best, err := ftbfs.SweepCost(g, *source, grid, *bPrice, *rPrice)
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
	fmt.Fprintf(stdout, "predicted optimal ε ≈ %.3f\n", ftbfs.PredictOptimalEpsilon(g.N(), *bPrice, *rPrice))
	return nil
}

func cmdVerify(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	in := fs.String("in", "-", "input graph")
	source := fs.Int("source", 0, "BFS source")
	eps := fs.Float64("eps", 0.25, "tradeoff parameter ε (ignored with -structure)")
	structPath := fs.String("structure", "", "verify a saved structure (slab record) instead of building one")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := readGraph(*in)
	if err != nil {
		return err
	}
	var st *ftbfs.Structure
	if *structPath != "" {
		f, err := os.Open(*structPath)
		if err != nil {
			return err
		}
		st, err = ftbfs.LoadStructure(g, f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		st, err = ftbfs.Build(g, *source, *eps)
		if err != nil {
			return err
		}
	}
	if err := st.Verify(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%v\nverified: contract holds\n", st)
	return nil
}

func cmdVertexFT(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vertexft", flag.ContinueOnError)
	in := fs.String("in", "-", "input graph")
	source := fs.Int("source", 0, "BFS source")
	verify := fs.Bool("verify", false, "exhaustively verify the vertex contract")
	save := fs.String("save", "", "write the vertex structure to file (slab record)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := readGraph(*in)
	if err != nil {
		return err
	}
	st, err := ftbfs.BuildVertex(g, *source)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "vertex-ftbfs{n=%d m=%d |H|=%d pairs=%d}\n", g.N(), g.M(), st.Size(), st.Pairs())
	if *save != "" {
		if err := writeOut(*save, stdout, st.SaveSlab); err != nil {
			return err
		}
	}
	if *verify {
		if err := st.Verify(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "verified: vertex contract holds")
	}
	return nil
}
