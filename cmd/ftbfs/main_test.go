package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftbfs/internal/cli"
	"ftbfs/internal/core"
)

// Smoke tests of the ftbfs binary's main path (main delegates to cli.Main
// with os exit codes): generate a tiny graph, build/sweep/verify against it,
// and assert exit status and parseable output.

func TestMainPathGenBuildVerify(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.graph")
	structPath := filepath.Join(dir, "g.ftbfs")

	var out, errb strings.Builder
	if code := cli.Main([]string{"gen", "-family", "gnp", "-n", "40", "-p", "0.15", "-seed", "7", "-o", graphPath}, &out, &errb); code != 0 {
		t.Fatalf("gen exit %d, stderr: %s", code, errb.String())
	}
	data, err := os.ReadFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "p 40 ") {
		t.Fatalf("generated graph has wrong header: %.40s", data)
	}

	out.Reset()
	if code := cli.Main([]string{"build", "-in", graphPath, "-source", "0", "-eps", "0.3", "-save", structPath, "-verify"}, &out, &errb); code != 0 {
		t.Fatalf("build exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "verified") {
		t.Fatalf("build -verify did not report success:\n%s", out.String())
	}
	saved, err := os.ReadFile(structPath)
	if err != nil {
		t.Fatal(err)
	}
	if !core.IsSlabRecord(saved) {
		t.Fatalf("saved structure is not a slab record: %.40q", saved)
	}

	out.Reset()
	if code := cli.Main([]string{"verify", "-in", graphPath, "-source", "0", "-structure", structPath}, &out, &errb); code != 0 {
		t.Fatalf("verify exit %d, stderr: %s", code, errb.String())
	}

	out.Reset()
	if code := cli.Main([]string{"sweep", "-in", graphPath, "-source", "0", "-grid", "0,0.3,1", "-csv"}, &out, &errb); code != 0 {
		t.Fatalf("sweep exit %d, stderr: %s", code, errb.String())
	}
	csv := out.String()
	if !strings.Contains(csv, "eps,backup,reinforced,cost,best") {
		t.Fatalf("sweep CSV header missing:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got < 4 {
		t.Fatalf("sweep CSV has %d lines, want ≥ 4:\n%s", got, csv)
	}
}

func TestMainPathErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := cli.Main(nil, &out, &errb); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
	errb.Reset()
	if code := cli.Main([]string{"frobnicate"}, &out, &errb); code != 2 {
		t.Fatalf("unknown-subcommand exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown subcommand") {
		t.Fatalf("unknown subcommand not reported: %s", errb.String())
	}
	errb.Reset()
	if code := cli.Main([]string{"build", "-in", "/nonexistent/x.graph", "-source", "0", "-eps", "0.3"}, &out, &errb); code != 1 {
		t.Fatalf("missing-input exit %d, want 1", code)
	}
	if code := cli.Main([]string{"help"}, &out, &errb); code != 0 {
		t.Fatalf("help exit %d, want 0", code)
	}
}
