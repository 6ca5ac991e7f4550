package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &bf
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json and the catalog the
// program checks its output against in step.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalog %d", len(bf.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, catalog %s/%s/%s", i, m.Name, m.Unit, m.Better, c.name, c.unit, c.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalog %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer[%d] = %s/%s/%s, catalog %s/%s/%s", i, m.Name, m.Unit, m.Better, c.name, c.unit, c.better)
		}
	}
	for _, w := range bf.Workloads {
		c, ok := workloadByName(w.Name)
		if !ok || c.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the catalog disagree", w.Name)
		}
	}
}

// TestReadmeNamesEverything keeps the README's tables complete.
func TestReadmeNamesEverything(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !strings.Contains(readme, "`"+m.name+"`") {
				t.Errorf("README.md does not name %s", m.name)
			}
		}
	}
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.name+"`") {
			t.Errorf("README.md does not name workload %s", w.name)
		}
	}
}

// checkResult asserts a finished run's result: every cataloged metric with
// a finite value and no wrong answer.
func checkResult(t *testing.T, res *result, want []metricDef) {
	t.Helper()
	if !res.Correct {
		t.Error("wrong answers")
	}
	if res.Attempted < 1 {
		t.Errorf("attempted %d", res.Attempted)
	}
	if err := checkMetrics(res.Metrics, want); err != nil {
		t.Error(err)
	}
}

// TestSelfCheck runs every workload at its smallest size, end to end and
// traced. The listed workloads must not fail a single operation; churn
// surfaces write failures at production defaults and is held to
// correctness only.
func TestSelfCheck(t *testing.T) {
	listed := make(map[string]bool)
	for _, w := range readBenchmarkFile(t).Workloads {
		listed[w.Name] = true
	}
	for _, w := range workloads {
		modes := []bool{false}
		if listed[w.name] {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			cfg := config{workload: w.name, seed: 7, seconds: 2, trace: traced, spanDir: t.TempDir()}
			var out bytes.Buffer
			var res *result
			var err error
			if traced {
				res, err = runTraced(cfg, &out)
			} else {
				res, err = runUntraced(cfg, &out)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			checkResult(t, res, want)
			if listed[w.name] && res.Failed != 0 {
				t.Errorf("%s traced=%v: %d failed operations\n%s", w.name, traced, res.Failed, out.String())
			}
		}
	}
}

// TestRejectsBadArguments checks the usage errors exit before any work.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "point-mix", "--trace", "2"},
		{"--workload", "point-mix", "--seconds", "1"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
