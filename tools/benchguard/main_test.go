package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const rawBench = `goos: linux
BenchmarkOraclePool/pooled-8         	      10	     10000 ns/op	      32 B/op	       0 allocs/op
BenchmarkOraclePool/pooled-8         	      10	     12000 ns/op	      32 B/op	       0 allocs/op
BenchmarkServeQueries/dist-avoiding-8	      10	     50000 ns/op	    6703 B/op	      83 allocs/op
BenchmarkBFSTree-8                   	     100	    900000 ns/op
PASS
`

const jsonBench = `{"Action":"output","Package":"ftbfs","Output":"BenchmarkOraclePool/pooled-4 \t 20\t 11000 ns/op\t 32 B/op\t 0 allocs/op\n"}
{"Action":"output","Package":"ftbfs","Output":"BenchmarkServeQueries/dist-avoiding-4 \t 20\t 80000 ns/op\t 7000 B/op\t 120 allocs/op\n"}
{"Action":"output","Package":"ftbfs","Output":"ok  \tftbfs\t1.2s\n"}
`

// test2json often splits a benchmark's name and measurements into separate
// Output events; the parser must stitch them back together.
const jsonBenchSplit = `{"Action":"output","Package":"ftbfs","Output":"BenchmarkOraclePool/pooled\n"}
{"Action":"output","Package":"ftbfs","Output":"BenchmarkOraclePool/pooled-4 \t"}
{"Action":"output","Package":"ftbfs","Output":"      20\t 13000 ns/op\t 32 B/op\t 2 allocs/op\n"}
{"Action":"output","Package":"ftbfs","Output":"ok  \tftbfs\t1.2s\n"}
`

func TestParseSplitJSONEvents(t *testing.T) {
	js, err := parseFile(writeTemp(t, "split.json", jsonBenchSplit))
	if err != nil {
		t.Fatal(err)
	}
	got := js["BenchmarkOraclePool/pooled"]
	if got == nil || got.nsPerOp != 13000 || got.allocsPerOp != 2 || got.count != 1 {
		t.Fatalf("split events misparsed: %+v", got)
	}
}

func TestParseRawAndJSON(t *testing.T) {
	raw, err := parseFile(writeTemp(t, "raw.txt", rawBench))
	if err != nil {
		t.Fatal(err)
	}
	pooled, ok := raw["BenchmarkOraclePool/pooled"]
	if !ok {
		t.Fatalf("procs suffix not stripped: %v", raw)
	}
	if pooled.nsPerOp != 10000 || pooled.count != 2 {
		t.Fatalf("repeated measurements not reduced to their minimum: %+v", pooled)
	}
	if bt := raw["BenchmarkBFSTree"]; bt == nil || bt.hasAllocs {
		t.Fatalf("ns-only line misparsed: %+v", bt)
	}

	js, err := parseFile(writeTemp(t, "out.json", jsonBench))
	if err != nil {
		t.Fatal(err)
	}
	if got := js["BenchmarkOraclePool/pooled"]; got == nil || got.nsPerOp != 11000 || got.allocsPerOp != 0 {
		t.Fatalf("json stream misparsed: %+v", got)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	baseline, err := parseFile(writeTemp(t, "base.txt", rawBench))
	if err != nil {
		t.Fatal(err)
	}
	latest, err := parseFile(writeTemp(t, "latest.json", jsonBench))
	if err != nil {
		t.Fatal(err)
	}
	filter := regexp.MustCompile("BenchmarkServeQueries|BenchmarkOraclePool")

	// dist-avoiding went 50000 → 80000 ns/op (+60%) and 83 → 120 allocs/op
	// (+45%): two regressions at a 20% threshold.
	regs, compared, missing := compare(baseline, latest, filter, 0.20, false)
	if len(compared) != 2 {
		t.Fatalf("compared %v, want both serving benchmarks", compared)
	}
	if len(missing) != 0 {
		t.Fatalf("spurious missing benchmarks %v", missing)
	}
	if len(regs) != 2 {
		t.Fatalf("got regressions %v, want ns/op + allocs/op of dist-avoiding", regs)
	}
	for _, r := range regs {
		if r.name != "BenchmarkServeQueries/dist-avoiding" {
			t.Fatalf("unexpected regression %v", r)
		}
	}

	// allocs-only mode drops the ns/op half of the gate.
	regs, _, _ = compare(baseline, latest, filter, 0.20, true)
	if len(regs) != 1 || regs[0].metric != "allocs/op" {
		t.Fatalf("allocs-only kept ns/op regressions: %v", regs)
	}

	// At a 100% threshold nothing regresses.
	if regs, _, _ := compare(baseline, latest, filter, 1.0, false); len(regs) != 0 {
		t.Fatalf("threshold ignored: %v", regs)
	}

	// A formerly allocation-free benchmark starting to allocate always fails.
	latest["BenchmarkOraclePool/pooled"].allocsPerOp = 3
	regs, _, _ = compare(baseline, latest, filter, 0.20, false)
	found := false
	for _, r := range regs {
		if r.name == "BenchmarkOraclePool/pooled" && r.metric == "allocs/op" {
			found = true
		}
	}
	if !found {
		t.Fatalf("0→3 allocs/op not flagged: %v", regs)
	}

	// Benchmarks missing from the baseline are skipped, not failed.
	delete(baseline, "BenchmarkServeQueries/dist-avoiding")
	if _, compared, _ := compare(baseline, latest, filter, 0.20, false); len(compared) != 1 {
		t.Fatalf("missing-baseline benchmark not skipped: %v", compared)
	}

	// A gated benchmark vanishing from the latest run must be reported: a
	// rename or deletion may not silently bypass the gate.
	delete(latest, "BenchmarkOraclePool/pooled")
	if _, _, missing := compare(baseline, latest, filter, 0.20, false); len(missing) != 1 ||
		missing[0] != "BenchmarkOraclePool/pooled" {
		t.Fatalf("vanished benchmark not reported: %v", missing)
	}
}

// Each compared row shows both sides' spread (max/min over their runs) next
// to the min the gate compares: rawBench ran pooled at 10000 and 12000
// ns/op, jsonBench once at 11000.
func TestRowPrintsSpread(t *testing.T) {
	baseline, err := parseFile(writeTemp(t, "base.txt", rawBench))
	if err != nil {
		t.Fatal(err)
	}
	latest, err := parseFile(writeTemp(t, "latest.json", jsonBench))
	if err != nil {
		t.Fatal(err)
	}
	name := "BenchmarkOraclePool/pooled"
	got := row(name, baseline[name], latest[name])
	want := "  BenchmarkOraclePool/pooled                              10000.0 ->      11000.0 ns/op" +
		" (spread 1.20x -> 1.00x)        0.0 ->      0.0 allocs/op"
	if got != want {
		t.Fatalf("row:\n got %q\nwant %q", got, want)
	}
	if bt := baseline["BenchmarkBFSTree"]; bt.spread() != 1 {
		t.Fatalf("single run spread %v, want 1", bt.spread())
	}
}

// The default -filter must be CI's TENTPOLE_BENCH, or a local run without
// -filter skips gates CI applies.
func TestDefaultFilterMatchesCI(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(ci), "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), "TENTPOLE_BENCH:"); ok {
			if v = strings.Trim(strings.TrimSpace(v), `'"`); v != defaultFilter {
				t.Fatalf("default -filter\n  %s\ndiffers from CI's TENTPOLE_BENCH\n  %s", defaultFilter, v)
			}
			return
		}
	}
	t.Fatal("no TENTPOLE_BENCH in ci.yml")
}
