// Benchguard compares two Go benchmark result files and fails (exit 1) when
// any benchmark matching a filter regressed by more than a threshold in
// ns/op or allocs/op. CI uses it to gate PRs on the serving and batch-build
// hot paths: the baseline is the previous run's BENCH_latest.json artifact,
// falling back to the committed BENCH_baseline.json.
//
// Both inputs may be either raw `go test -bench` text or the `go test -json`
// stream (benchmark lines are extracted from the Output events). Repeated
// measurements of one benchmark (-count > 1) are reduced to their MINIMUM:
// scheduler and shared-runner noise is one-sided (it only ever makes code
// look slower), so min-of-N is far more stable across CI runs than the mean.
// Run the gated benchmarks with -count 3 or more. Each compared row also
// prints both sides' spread, the max/min ns/op ratio of their runs, so a
// reader can tell a moved minimum from a noisy one; the gate ignores it.
// The -<procs> suffix of parallel benchmarks is stripped so runs from
// machines with different core counts stay comparable.
//
// Usage:
//
//	benchguard -baseline OLD -latest NEW [-threshold 0.20]
//	           [-filter REGEXP] [-allow-missing-baseline]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// defaultFilter is CI's TENTPOLE_BENCH (.github/workflows/ci.yml), so a
// local run without -filter gates the same benchmarks CI does.
const defaultFilter = "BenchmarkServeQueries|BenchmarkOraclePool|BenchmarkBuildBatch|BenchmarkBuildEpsilon|BenchmarkQueryPlan|BenchmarkClusterRoute|BenchmarkVertexQuery|BenchmarkWireServe|BenchmarkSlabLoad/slab|BenchmarkRebalance|BenchmarkMutate|BenchmarkClusterBuild|BenchmarkVertexBuild"

// result accumulates the measurements of one benchmark.
type result struct {
	nsPerOp     float64 // minimum over the runs: what the gate compares
	nsMax       float64 // maximum over the runs, for the spread
	allocsPerOp float64
	hasAllocs   bool
	count       int
}

// spread returns the max/min ns/op ratio of the runs (1 for a single run).
func (r *result) spread() float64 {
	if r.nsPerOp <= 0 {
		return 1
	}
	return r.nsMax / r.nsPerOp
}

// benchLine matches a standard benchmark result line:
//
//	BenchmarkName-8  	     100	  10093 ns/op	  32 B/op	  0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.eE+]+) ns/op(.*)$`)

// procsSuffix strips the trailing -<GOMAXPROCS> from a benchmark name.
var procsSuffix = regexp.MustCompile(`-\d+$`)

var allocsField = regexp.MustCompile(`([0-9.eE+]+) allocs/op`)

// nameOnly matches a benchmark name printed without measurements — the
// `go test -json` stream often emits the name and the result columns as
// separate Output events.
var nameOnly = regexp.MustCompile(`^(Benchmark\S+)\s*$`)

// resultOnly matches the measurement columns arriving in their own event.
var resultOnly = regexp.MustCompile(`^\d+\s+([0-9.eE+]+) ns/op(.*)$`)

// parseFile reads benchmark results from raw bench text or a go test -json
// stream, keeping the minimum and maximum of repeated measurements per
// benchmark (see record).
func parseFile(path string) (map[string]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := make(map[string]*result)
	pending := "" // benchmark name seen without measurements yet
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev struct {
				Output string `json:"Output"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				continue
			}
			line = strings.TrimSuffix(ev.Output, "\n")
		}
		line = strings.TrimSpace(line)
		switch {
		case benchLine.MatchString(line):
			m := benchLine.FindStringSubmatch(line)
			record(out, m[1], m[2], m[3])
			pending = ""
		case nameOnly.MatchString(line):
			pending = nameOnly.FindStringSubmatch(line)[1]
		case pending != "" && resultOnly.MatchString(line):
			m := resultOnly.FindStringSubmatch(line)
			record(out, pending, m[1], m[2])
			pending = ""
		}
	}
	return out, sc.Err()
}

// record folds one benchmark measurement into the accumulator.
func record(out map[string]*result, name, nsField, rest string) {
	name = procsSuffix.ReplaceAllString(name, "")
	ns, err := strconv.ParseFloat(nsField, 64)
	if err != nil {
		return
	}
	r := out[name]
	if r == nil {
		r = &result{}
		out[name] = r
	}
	// Keep the minimum of repeated -count measurements: noise only slows
	// benchmarks down, so the min is the best estimate of the true cost.
	if r.count == 0 || ns < r.nsPerOp {
		r.nsPerOp = ns
	}
	if ns > r.nsMax {
		r.nsMax = ns
	}
	if am := allocsField.FindStringSubmatch(rest); am != nil {
		if allocs, err := strconv.ParseFloat(am[1], 64); err == nil {
			if !r.hasAllocs || allocs < r.allocsPerOp {
				r.allocsPerOp = allocs
			}
			r.hasAllocs = true
		}
	}
	r.count++
}

// regression describes one metric that got worse than the threshold.
type regression struct {
	name, metric string
	old, new     float64
}

func (r regression) String() string {
	return fmt.Sprintf("%s: %s %.4g -> %.4g (%+.1f%%)",
		r.name, r.metric, r.old, r.new, 100*(r.new/r.old-1))
}

// compare returns the regressions beyond threshold among benchmarks present
// in both maps and matching filter, plus the gated baseline benchmarks that
// vanished from latest — a renamed or deleted benchmark must fail the gate,
// not silently stop being checked. With allocsOnly, ns/op is reported but
// not gated (wall-clock is meaningless across different hardware).
func compare(baseline, latest map[string]*result, filter *regexp.Regexp, threshold float64, allocsOnly bool) (regs []regression, compared, missing []string) {
	names := make([]string, 0, len(latest))
	for name := range latest {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !filter.MatchString(name) {
			continue
		}
		base, ok := baseline[name]
		if !ok {
			continue
		}
		cur := latest[name]
		compared = append(compared, name)
		if !allocsOnly && base.nsPerOp > 0 && cur.nsPerOp > base.nsPerOp*(1+threshold) {
			regs = append(regs, regression{name, "ns/op", base.nsPerOp, cur.nsPerOp})
		}
		if base.hasAllocs && cur.hasAllocs {
			switch {
			case base.allocsPerOp > 0 && cur.allocsPerOp > base.allocsPerOp*(1+threshold):
				regs = append(regs, regression{name, "allocs/op", base.allocsPerOp, cur.allocsPerOp})
			case base.allocsPerOp == 0 && cur.allocsPerOp > 0:
				// A formerly allocation-free path started allocating: always
				// a regression, no ratio exists.
				regs = append(regs, regression{name, "allocs/op", 0, cur.allocsPerOp})
			}
		}
	}
	baseNames := make([]string, 0, len(baseline))
	for name := range baseline {
		baseNames = append(baseNames, name)
	}
	sort.Strings(baseNames)
	for _, name := range baseNames {
		if filter.MatchString(name) {
			if _, ok := latest[name]; !ok {
				missing = append(missing, name)
			}
		}
	}
	return regs, compared, missing
}

// row formats one compared benchmark: the gated min ns/op of each side,
// each side's spread over its runs, and allocs/op when both report them.
func row(name string, b, l *result) string {
	line := fmt.Sprintf("  %-50s %12.1f -> %12.1f ns/op (spread %.2fx -> %.2fx)",
		name, b.nsPerOp, l.nsPerOp, b.spread(), l.spread())
	if b.hasAllocs && l.hasAllocs {
		line += fmt.Sprintf("   %8.1f -> %8.1f allocs/op", b.allocsPerOp, l.allocsPerOp)
	}
	return line
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline benchmark results (bench text or go test -json)")
	latestPath := flag.String("latest", "", "latest benchmark results (bench text or go test -json)")
	threshold := flag.Float64("threshold", 0.20, "relative regression tolerance (0.20 = +20%)")
	filterSpec := flag.String("filter", defaultFilter, "regexp of benchmark names to gate on")
	allowMissing := flag.Bool("allow-missing-baseline", false, "exit 0 when the baseline file does not exist")
	allocsOnly := flag.Bool("allocs-only", false,
		"gate only on allocs/op (use when baseline and latest ran on different hardware)")
	flag.Parse()
	if *baselinePath == "" || *latestPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline and -latest are required")
		os.Exit(2)
	}
	filter, err := regexp.Compile(*filterSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: bad -filter: %v\n", err)
		os.Exit(2)
	}
	if _, err := os.Stat(*baselinePath); os.IsNotExist(err) && *allowMissing {
		fmt.Printf("benchguard: no baseline at %s; passing\n", *baselinePath)
		return
	}
	baseline, err := parseFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	latest, err := parseFile(*latestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	if len(latest) == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: no benchmark results in %s\n", *latestPath)
		os.Exit(2)
	}
	regs, compared, missing := compare(baseline, latest, filter, *threshold, *allocsOnly)
	mode := ""
	if *allocsOnly {
		mode = ", allocs/op only"
	}
	fmt.Printf("benchguard: compared %d benchmarks against %s (threshold +%.0f%%%s)\n",
		len(compared), *baselinePath, *threshold*100, mode)
	for _, name := range compared {
		fmt.Println(row(name, baseline[name], latest[name]))
	}
	if len(compared) == 0 {
		fmt.Println("benchguard: warning: nothing to compare (baseline/filter mismatch)")
	}
	if len(missing) > 0 {
		fmt.Printf("benchguard: %d gated benchmark(s) vanished from the latest run:\n", len(missing))
		for _, name := range missing {
			fmt.Printf("  MISSING %s (renamed or deleted? update the baseline/filter deliberately)\n", name)
		}
		os.Exit(1)
	}
	if len(regs) > 0 {
		fmt.Printf("benchguard: %d regression(s) beyond +%.0f%%:\n", len(regs), *threshold*100)
		for _, r := range regs {
			fmt.Printf("  REGRESSION %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Println("benchguard: OK")
}
