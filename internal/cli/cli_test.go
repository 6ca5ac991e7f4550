package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftbfs/internal/bfs"
	"ftbfs/internal/core"
	"ftbfs/internal/graph"
)

func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := Main(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestUsageAndUnknown(t *testing.T) {
	if _, _, code := run(t); code != 2 {
		t.Fatal("no-arg should exit 2")
	}
	if _, errS, code := run(t, "bogus"); code != 2 || !strings.Contains(errS, "unknown subcommand") {
		t.Fatalf("bogus subcommand: code=%d err=%q", code, errS)
	}
	if out, _, code := run(t, "help"); code != 0 || !strings.Contains(out, "usage:") {
		t.Fatal("help broken")
	}
}

func genFile(t *testing.T, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	full := append([]string{"gen", "-o", path}, args...)
	if _, errS, code := run(t, full...); code != 0 {
		t.Fatalf("gen failed: %s", errS)
	}
	return path
}

func TestGenFamilies(t *testing.T) {
	for _, fam := range []string{"gnp", "gnm", "grid", "cycle", "hypercube", "random", "cliquechain"} {
		path := genFile(t, "-family", fam, "-n", "30")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "p ") {
			t.Fatalf("%s: bad output %q", fam, string(data[:10]))
		}
	}
	path := genFile(t, "-family", "lowerbound", "-n", "300", "-eps", "0.3")
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatal("lowerbound gen empty")
	}
	if _, _, code := run(t, "gen", "-family", "nope"); code != 1 {
		t.Fatal("unknown family accepted")
	}
}

func TestBuildVerifySaveRoundTrip(t *testing.T) {
	g := genFile(t, "-family", "gnp", "-n", "60", "-p", "0.1", "-seed", "3")
	saved := filepath.Join(t.TempDir(), "st.txt")
	dot := filepath.Join(t.TempDir(), "g.dot")
	out, errS, code := run(t, "build", "-in", g, "-eps", "0.25", "-save", saved, "-dot", dot, "-verify")
	if code != 0 {
		t.Fatalf("build failed: %s", errS)
	}
	if !strings.Contains(out, "verified") || !strings.Contains(out, "ftbfs{") {
		t.Fatalf("build output: %q", out)
	}
	if data, err := os.ReadFile(dot); err != nil || !strings.Contains(string(data), "graph G {") {
		t.Fatal("dot output broken")
	}
	// verify the saved structure
	out, errS, code = run(t, "verify", "-in", g, "-structure", saved)
	if code != 0 || !strings.Contains(out, "contract holds") {
		t.Fatalf("verify saved: code=%d out=%q err=%q", code, out, errS)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, _, code := run(t, "build", "-in", "/nonexistent/file"); code != 1 {
		t.Fatal("missing file accepted")
	}
	g := genFile(t, "-family", "cycle", "-n", "10")
	if _, _, code := run(t, "build", "-in", g, "-alg", "nope"); code != 1 {
		t.Fatal("bad algorithm accepted")
	}
	if _, _, code := run(t, "build", "-in", g, "-eps", "7"); code != 1 {
		t.Fatal("bad eps accepted")
	}
}

func TestSweep(t *testing.T) {
	g := genFile(t, "-family", "cliquechain", "-n", "16")
	out, errS, code := run(t, "sweep", "-in", g, "-grid", "0,0.5,1", "-B", "1", "-R", "25")
	if code != 0 {
		t.Fatalf("sweep failed: %s", errS)
	}
	if !strings.Contains(out, "predicted optimal") || !strings.Contains(out, "*") {
		t.Fatalf("sweep output: %q", out)
	}
	out, _, code = run(t, "sweep", "-in", g, "-grid", "0,1", "-csv")
	if code != 0 || !strings.Contains(out, "eps,backup") {
		t.Fatalf("csv sweep output: %q", out)
	}
	if _, _, code := run(t, "sweep", "-in", g, "-grid", "0,zz"); code != 1 {
		t.Fatal("bad grid accepted")
	}
}

func TestVerifyBuildsWhenNoStructure(t *testing.T) {
	g := genFile(t, "-family", "grid", "-n", "25")
	out, errS, code := run(t, "verify", "-in", g, "-eps", "0.3")
	if code != 0 || !strings.Contains(out, "contract holds") {
		t.Fatalf("verify: code=%d out=%q err=%q", code, out, errS)
	}
}

// TestVerifyRefusesBrokenRecord hands `verify -structure` a slab record
// that breaks the contract: G is the 4-cycle 0-1-2-3-0 with source 0, H is
// the path {0,1}, {1,2}, {2,3} (it lacks G's tree edge {3,0}) and nothing
// is reinforced. Failing {0,1} strands vertex 1 in H while G\{0,1}
// reaches it at distance 3, so the command must fail and print no
// "verified" line.
func TestVerifyRefusesBrokenRecord(t *testing.T) {
	g := graph.New(4)
	h := graph.NewEdgeSet(4)
	h.Add(g.MustAddEdge(0, 1))
	h.Add(g.MustAddEdge(1, 2))
	h.Add(g.MustAddEdge(2, 3))
	g.MustAddEdge(3, 0)
	g.Freeze()
	csr := g.SubgraphCSR(h)
	bt := bfs.FromCSR(csr, 0)
	none := graph.NewEdgeSet(g.M())
	rec, err := core.EncodeSlabBytes(g, &core.SlabRecord{
		Model: core.ModelEdge, Alg: core.Epsilon,
		Edges: h, Reinforced: none,
		Intact: bt.Dist, RowStart: csr.RowStart, Arcs: csr.Arcs,
		Parent: bt.Parent, ParentEdge: bt.ParentEdge, Order: bt.Order,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gpath, spath := filepath.Join(dir, "g.txt"), filepath.Join(dir, "st.slab")
	var text bytes.Buffer
	if err := graph.Encode(&text, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gpath, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spath, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	out, errS, code := run(t, "verify", "-in", gpath, "-structure", spath)
	if code == 0 || strings.Contains(out, "verified") || !strings.Contains(errS, "contract violated") {
		t.Fatalf("verify of a broken record: code=%d out=%q err=%q", code, out, errS)
	}
}

func TestVertexFT(t *testing.T) {
	g := genFile(t, "-family", "hypercube", "-n", "32")
	out, errS, code := run(t, "vertexft", "-in", g, "-verify")
	if code != 0 {
		t.Fatalf("vertexft failed: %s", errS)
	}
	if !strings.Contains(out, "vertex contract holds") {
		t.Fatalf("vertexft output: %q", out)
	}
}

func TestGenToStdout(t *testing.T) {
	out, _, code := run(t, "gen", "-family", "cycle", "-n", "5")
	if code != 0 || !strings.HasPrefix(out, "p 5 5") {
		t.Fatalf("stdout gen: %q", out)
	}
}
