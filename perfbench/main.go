// Command perfbench is the serving benchmark. It boots an in-process
// 4-shard, replication-2 cluster at production defaults, drives one seeded
// closed-loop workload through the router's HTTP edge, checks every answer
// against BFS in G minus the failure, and prints the end-to-end metrics.
// With --trace 1 it instead replays the seed's streams one call at a time at
// each layer boundary and prints the per-layer metrics.
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload point-mix --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// readable report. Any wrong answer or failed Verify exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spanDir  string // where a traced run writes its spans
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{spanDir: ".bench_build/spans"}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: point-mix, whatif-batch or churn")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; every graph and request stream derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured closed loop, at least 2")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if _, ok := workloadByName(cfg.workload); !ok || cfg.seconds < 2 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds >= 2 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(cfg, stdout)
	} else {
		res, err = runUntraced(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: wrong answers (see report)")
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// fixtureFor builds the workload's fixture and seeded streams.
func fixtureFor(workload string, seed int64) (*fixture, *streams, error) {
	edgeSources, vertexSources := fixtureEdgeSources, fixtureVertexSources
	if workload == "churn" {
		edgeSources, vertexSources = churnEdgeSources, churnVertexSources
	}
	fx, err := newFixture(seed, edgeSources, vertexSources)
	if err != nil {
		return nil, nil, err
	}
	s := &streams{}
	if s.points, err = fx.pointStream(seed, pointStreamLen); err != nil {
		return nil, nil, err
	}
	if s.batches, err = fx.batchStream(seed, batchStreamLen); err != nil {
		return nil, nil, err
	}
	if s.writer, err = newWriter(fx, seed); err != nil {
		return nil, nil, err
	}
	return fx, s, nil
}

// runUntraced is the end-to-end run: set up, verify, warm up, then measure
// the workload's closed loop, alternating slices with the echo, with nothing
// recorded but latencies and CPU time.
func runUntraced(cfg config, out io.Writer) (*result, error) {
	t0 := time.Now()
	fx, s, err := fixtureFor(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	refS := time.Since(t0).Seconds()
	d, setupS, heapMB, err := setUp(fx)
	if err != nil {
		return nil, err
	}
	defer d.close()
	t0 = time.Now()
	if err := verifyResident(d, fx); err != nil {
		return nil, err
	}
	verifyS := time.Since(t0).Seconds()
	e, err := startEcho()
	if err != nil {
		return nil, err
	}
	defer e.close()
	warm, err := runLoop(cfg.workload, d.base, e.base, s, warmup, time.Time{}, 0)
	if err != nil {
		return nil, err
	}
	ph, err := runLoop(cfg.workload, d.base, e.base, s, time.Duration(cfg.seconds*float64(time.Second)), time.Time{}, len(s.points)/2)
	if err != nil {
		return nil, err
	}

	rep := newReport(out, cfg)
	fmt.Fprintf(out, "  untimed: local builds and reference answers %.2f s, Verify of resident structures %.2f s\n", refS, verifyS)
	res := rep.outcome(ph)
	rep.warmUp(res, warm)
	read := ph.ops[readOp(cfg.workload)]
	if read.ok == 0 || ph.echo.ok == 0 {
		return nil, fmt.Errorf("timed phase: %d successful %s, %d echo round trips", read.ok, readOp(cfg.workload), ph.echo.ok)
	}
	backup, reinforced := 0, 0
	for _, st := range d.build.Structures {
		backup += st.Backup
		reinforced += st.Reinforced
	}
	p50Rel := ph.relP50(read)
	cpuRead, cpuEcho := ph.cpuSplit()
	cpuPerRead := float64(cpuRead) / 1e3 / float64(read.ok)
	cpuPerEcho := float64(cpuEcho) / 1e3 / float64(ph.echo.ok)
	cpuRel := cpuPerRead / cpuPerEcho
	p50, p90, echoP50 := quantile(read.lat, 0.5), quantile(read.lat, 0.9), quantile(ph.echo.lat, 0.5)
	res.Metrics = make(map[string]metricValue)
	for name, v := range map[string]float64{
		"setup_s":         setupS,
		"heap_mb":         heapMB,
		"read_p50_rel":    p50Rel,
		"read_cpu_rel":    cpuRel,
		"backup_edges":    float64(backup),
		"structure_edges": float64(backup + reinforced),
	} {
		res.Metrics[name] = metricValue{v, unitOf(name)}
	}

	n := len(read.lat)
	rep.metric("setup_s", setupS, "s", setupRuns)
	rep.metric("heap_mb", heapMB, "MB", setupRuns)
	switch cfg.workload {
	case "whatif-batch":
		rep.metric("batch_p50_ms", p50/1e3, "ms", n)
		rep.metric("batch_p90_ms", p90/1e3, "ms", n)
		rep.metric("batch_cpu_ms", cpuPerRead/1e3, "cpu-ms/batch", n)
	default:
		rep.metric("point_p50_us", p50, "us", n)
		rep.metric("point_p90_us", p90, "us", n)
		rep.metric("point_cpu_us", cpuPerRead, "cpu-us/query", n)
	}
	rep.metric("echo_p50_us", echoP50, "us", ph.echo.ok)
	rep.metric("echo_cpu_us", cpuPerEcho, "cpu-us/echo", ph.echo.ok)
	rep.metric("read_p50_rel", p50Rel, "x", n)
	rep.metric("read_cpu_rel", cpuRel, "x", n)
	if cfg.workload == "churn" {
		for _, m := range []struct{ name, op string }{{"mutate_delta_ms", opDelete}, {"mutate_full_ms", opInsert}, {"build_ms", opBuild}} {
			st := ph.ops[m.op]
			rep.metric(m.name, quantile(st.lat, 0.5)/1e3, "ms", len(st.lat))
		}
		sent, failed := 0, 0
		for _, op := range []string{opDelete, opInsert, opBuild} {
			sent += ph.ops[op].sent
			failed += ph.ops[op].failed
		}
		rep.metric("write_failed_share", ratio(failed, sent), "ratio", sent)
	}
	if read.slots > 0 {
		rep.metric("read_failed_share", ratio(read.slotsBad, read.slots), "ratio", read.slots)
	} else {
		rep.metric("read_failed_share", ratio(read.failed, read.sent), "ratio", read.sent)
	}
	rep.metric("backup_edges", float64(backup), "edges", len(d.build.Structures))
	rep.metric("reinforced_edges", float64(reinforced), "edges", len(d.build.Structures))
	rep.metric("structure_edges", float64(backup+reinforced), "edges", len(d.build.Structures))
	return res, checkMetrics(res.Metrics, endToEnd)
}

// report prints the readable part of the output.
type report struct {
	out io.Writer
}

func newReport(out io.Writer, cfg config) *report {
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced per-layer"
	}
	fmt.Fprintf(out, "perfbench %s run: workload %s, seed %d, %g s, %d shards x replication %d\n",
		mode, cfg.workload, cfg.seed, cfg.seconds, clusterShards, clusterReplicas)
	return &report{out: out}
}

// outcome prints the per-operation counts and folds them into a result:
// every operation sent counts as attempted, every failed or refused one as
// failed, and any wrong answer makes the result incorrect.
func (r *report) outcome(ph *phase) *result {
	res := &result{Correct: true}
	for _, n := range sortedOps(ph) {
		st := ph.ops[n]
		fmt.Fprintf(r.out, "  op %-14s sent %7d  succeeded %7d  failed %5d  wrong %d", n, st.sent, st.ok, st.failed, st.wrong)
		if st.slots > 0 {
			fmt.Fprintf(r.out, "  (slots %d, failed slots %d)", st.slots, st.slotsBad)
		}
		fmt.Fprintln(r.out)
		if st.firstFail != "" {
			fmt.Fprintf(r.out, "     first failure: %.300s\n", st.firstFail)
		}
		if st.firstWrong != "" {
			fmt.Fprintf(r.out, "     first wrong answer: %.300s\n", st.firstWrong)
		}
		res.Attempted += st.sent
		res.Failed += st.failed
		if st.wrong > 0 {
			res.Correct = false
		}
	}
	return res
}

// warmUp marks the result incorrect when the untimed warm-up received a
// wrong answer. The warm-up's latencies and failures stay out of the
// metrics, but every answer it received counts toward correctness.
func (r *report) warmUp(res *result, warm *phase) {
	for _, n := range sortedOps(warm) {
		if st := warm.ops[n]; st.wrong > 0 {
			fmt.Fprintf(r.out, "  warm-up op %s: wrong %d, first wrong answer: %.300s\n", n, st.wrong, st.firstWrong)
			res.Correct = false
		}
	}
}

func (r *report) metric(name string, v float64, unit string, n int) {
	fmt.Fprintf(r.out, "  %-30s %14.4f %-12s (n=%d)\n", name, v, unit, n)
}

// sortedOps returns the phase's operation names in order.
func sortedOps(ph *phase) []string {
	names := make([]string, 0, len(ph.ops))
	for n := range ph.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkMetrics asserts that the result holds exactly the cataloged metrics,
// each finite.
func checkMetrics(got map[string]metricValue, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("result has %d metrics, the catalog %d", len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.name]
		if !ok {
			return fmt.Errorf("metric %s missing from the result", m.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		if v.Unit != m.unit {
			return fmt.Errorf("metric %s has unit %q, the catalog %q", m.name, v.Unit, m.unit)
		}
	}
	return nil
}
