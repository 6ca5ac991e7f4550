// Command metriclint fails CI when a serving-plane package grows a new
// ad-hoc counter outside internal/telemetry.
//
// The serving layers used to keep hand-rolled atomic counters and expose
// them via bespoke /stats fields; those all migrated onto
// internal/telemetry's registry, which is the only way a number reaches
// /metrics, /metrics/fleet, and the merged fleet histograms. A fresh
// `atomic.Uint64` tally (or any expvar use) in server/cluster/store/chaos
// code silently reopens the split: the counter works locally but is
// invisible to exposition and merge. This lint is deliberately grep-grade —
// it flags declarations of atomic integer types and any expvar reference in
// non-test files of the serving packages, minus a named allowlist of
// protocol/control state that is legitimately not a metric.
//
// To add a new counter: use telemetry.Registry (Counter/Gauge/Histogram or
// CounterFunc over existing state). To keep a genuinely non-metric atomic
// (sequence numbers, breaker state, queue depth feeding a GaugeFunc), add it
// to the allowlist below with a one-line justification. An allowlist entry
// that matches no declaration is a finding too: a moved or deleted atomic
// must take its entry with it, so the list never vouches for code that is
// gone.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// scanDirs are the serving-plane packages where a bare counter is a bug.
// internal/telemetry itself is the one place atomics are the point. "." is
// the root ftbfs package (scanned non-recursively): its process-wide plan
// counters live on telemetry.Counter since the planstats migration, and a
// fresh atomic there would be just as invisible to exposition.
var scanDirs = []string{
	".",
	"internal/server",
	"internal/cluster",
	"internal/store",
	"internal/chaos",
	"internal/wire",
}

// allowlist maps "path:identifier" to why that atomic is not a metric.
var allowlist = map[string]string{
	"internal/server/server.go:queued":             "work-queue depth; exposed through a telemetry GaugeFunc",
	"internal/server/edge.go:pointSeq":             "trace-sampling sequence, not exposed",
	"internal/wire/client.go:ids":                  "frame-ID sequence, protocol state",
	"internal/wire/client.go:next":                 "connection round-robin cursor",
	"internal/wire/client.go:wpend":                "write-mutex waiter count, flush coalescing",
	"internal/cluster/membership.go:probeFailures": "breaker input; exposed through breakerSnapshot + CounterFunc",
	"internal/cluster/membership.go:reqFailures":   "breaker input; exposed through breakerSnapshot + CounterFunc",
	"internal/cluster/membership.go:probes":        "breaker input; exposed through breakerSnapshot + CounterFunc",
}

var (
	// A field or var declaration of an atomic integer: "name atomic.Uint64",
	// "var name atomic.Int64", "name *atomic.Uint32", ...
	atomicDecl = regexp.MustCompile(`^\s*(?:var\s+)?([A-Za-z_][A-Za-z0-9_]*)\s+\*?atomic\.(?:Uint64|Int64|Uint32|Int32)\b`)
	expvarUse  = regexp.MustCompile(`\bexpvar\.`)
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	bad := 0
	matched := make(map[string]bool, len(allowlist))
	for _, dir := range scanDirs {
		base := filepath.Join(root, dir)
		err := filepath.Walk(base, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if info.IsDir() {
				// "." means the root package only; its subdirectories are
				// either listed explicitly or out of scope (tools, testdata).
				if dir == "." && path != base {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			rel = filepath.ToSlash(rel)
			for i, line := range strings.Split(string(raw), "\n") {
				if idx := strings.Index(line, "//"); idx >= 0 {
					line = line[:idx]
				}
				if expvarUse.MatchString(line) {
					fmt.Fprintf(os.Stderr, "%s:%d: expvar use outside internal/telemetry; register on the telemetry.Registry instead\n", rel, i+1)
					bad++
					continue
				}
				m := atomicDecl.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				if _, ok := allowlist[rel+":"+m[1]]; ok {
					matched[rel+":"+m[1]] = true
					continue
				}
				fmt.Fprintf(os.Stderr, "%s:%d: ad-hoc atomic counter %q outside internal/telemetry; use telemetry.Counter/Gauge/Histogram (or add to tools/metriclint allowlist with a justification)\n", rel, i+1, m[1])
				bad++
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
			os.Exit(2)
		}
	}
	stale := make([]string, 0, len(allowlist))
	for entry := range allowlist {
		if !matched[entry] {
			stale = append(stale, entry)
		}
	}
	sort.Strings(stale)
	for _, entry := range stale {
		fmt.Fprintf(os.Stderr, "tools/metriclint: allowlist entry %q matches no declaration; remove it or move it with its atomic\n", entry)
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "metriclint: %d finding(s)\n", bad)
		os.Exit(1)
	}
	fmt.Println("metriclint: serving-plane counters all live on internal/telemetry")
}
