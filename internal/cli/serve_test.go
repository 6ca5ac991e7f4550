package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ftbfs/internal/wire"
)

// TestServeCommand drives the full subcommand: generate a graph, start the
// service with a persist directory and a pre-built structure, query it over
// HTTP, and shut it down through the (stubbed) signal context.
func TestServeCommand(t *testing.T) {
	dir := t.TempDir()
	graphFile := filepath.Join(dir, "g.txt")
	if _, _, code := run(t, "gen", "-family", "gnp", "-n", "40", "-p", "0.15", "-seed", "3", "-o", graphFile); code != 0 {
		t.Fatal("gen failed")
	}

	ctx, cancel := context.WithCancel(context.Background())
	oldCtx, oldReady := serveSignalContext, serveReady
	defer func() { serveSignalContext, serveReady = oldCtx, oldReady }()
	serveSignalContext = func() (context.Context, context.CancelFunc) {
		return ctx, func() {}
	}
	addrc := make(chan string, 1)
	serveReady = func(addr string) { addrc <- addr }

	var out bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- Main([]string{"serve", "-addr", "127.0.0.1:0",
			"-dir", filepath.Join(dir, "store"), "-cap", "4",
			"-in", graphFile, "-sources", "0", "-eps", "0.3"}, &out, os.Stderr)
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not come up")
	}

	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Store struct {
			Graphs     int `json:"graphs"`
			Structures int `json:"structures"`
		} `json:"store"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Store.Graphs != 1 || stats.Store.Structures != 1 {
		t.Fatalf("pre-build missing from /stats: %+v", stats)
	}

	// The pre-registered fingerprint is printed at startup; query through it.
	startup := out.String()
	var fp string
	for _, line := range strings.Split(startup, "\n") {
		if strings.HasPrefix(line, "registered graph ") {
			fp = strings.Fields(line)[2]
		}
	}
	if fp == "" {
		t.Fatalf("no fingerprint in startup output: %q", startup)
	}
	resp, err = http.Get(fmt.Sprintf("http://%s/dist?graph=%s&eps=0.3&v=5", addr, fp))
	if err != nil {
		t.Fatal(err)
	}
	var dr struct {
		Dist int `json:"dist"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/dist failed: %v (status %d)", err, resp.StatusCode)
	}
	if dr.Dist < 0 {
		t.Fatalf("vertex 5 unreachable in a connected graph (dist %d)", dr.Dist)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exited %d; output:\n%s", code, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down")
	}
	if !strings.Contains(out.String(), "shut down cleanly") {
		t.Fatalf("missing graceful-shutdown message in %q", out.String())
	}

	// The persist directory survived: it holds the graph and the structure.
	files, err := filepath.Glob(filepath.Join(dir, "store", "*"))
	if err != nil || len(files) != 2 {
		t.Fatalf("persist dir contents: %v (%v)", files, err)
	}
}

func TestServeBadFlags(t *testing.T) {
	if _, _, code := run(t, "serve", "-in", "/nonexistent/graph.txt"); code != 1 {
		t.Fatal("missing graph file accepted")
	}
	if _, _, code := run(t, "serve", "-bogus"); code != 1 {
		t.Fatal("bad flag accepted")
	}
	// Routers reach shards over the binary protocol only.
	if _, stderr, code := run(t, "serve", "-shard"); code != 1 || !strings.Contains(stderr, "-wire") {
		t.Fatalf("serve -shard without -wire: exit %d, stderr %q", code, stderr)
	}
}

// TestServeWireFlag checks that -wire opens a binary-protocol listener,
// advertises it on /readyz, and answers a point query identically to HTTP.
func TestServeWireFlag(t *testing.T) {
	dir := t.TempDir()
	graphFile := filepath.Join(dir, "g.txt")
	if _, _, code := run(t, "gen", "-family", "gnp", "-n", "30", "-p", "0.2", "-seed", "7", "-o", graphFile); code != 0 {
		t.Fatal("gen failed")
	}

	ctx, cancel := context.WithCancel(context.Background())
	oldCtx, oldReady := serveSignalContext, serveReady
	defer func() { serveSignalContext, serveReady = oldCtx, oldReady }()
	serveSignalContext = func() (context.Context, context.CancelFunc) { return ctx, func() {} }
	addrc := make(chan string, 1)
	serveReady = func(addr string) { addrc <- addr }

	var out bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- Main([]string{"serve", "-addr", "127.0.0.1:0", "-wire", "127.0.0.1:0",
			"-in", graphFile, "-sources", "0", "-eps", "0.3"}, &out, os.Stderr)
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not come up")
	}

	// /readyz advertises the wire address.
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Wire string `json:"wire"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if err != nil || ready.Wire == "" {
		t.Fatalf("/readyz did not advertise a wire address: %v %+v", err, ready)
	}

	var fp uint64
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "registered graph ") {
			if _, err := fmt.Sscanf(strings.Fields(line)[2], "%x", &fp); err != nil {
				t.Fatalf("bad fingerprint line %q: %v", line, err)
			}
		}
	}

	wc := wire.NewClient(ready.Wire, 1)
	defer wc.Close()
	d, werr, err := wc.Point(context.Background(), wire.TDist, &wire.PointQuery{
		FP: fp, EpsBits: math.Float64bits(0.3), Source: 0, V: 5, A: -1, B: -1,
	})
	if err != nil || werr != nil {
		t.Fatalf("wire dist: %v %v", err, werr)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/dist?graph=%016x&eps=0.3&v=5", addr, fp))
	if err != nil {
		t.Fatal(err)
	}
	var dr struct {
		Dist int `json:"dist"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/dist failed: %v (status %d)", err, resp.StatusCode)
	}
	if int(d) != dr.Dist {
		t.Fatalf("wire dist %d != HTTP dist %d", d, dr.Dist)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exited %d; output:\n%s", code, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down")
	}
}

// TestServePprofFlag checks that -pprof opens the profiling handlers on
// their own debug listener and that the serving listener never grows them.
func TestServePprofFlag(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	oldCtx, oldReady := serveSignalContext, serveReady
	defer func() { serveSignalContext, serveReady = oldCtx, oldReady }()
	serveSignalContext = func() (context.Context, context.CancelFunc) { return ctx, func() {} }
	addrc := make(chan string, 1)
	serveReady = func(addr string) { addrc <- addr }

	var out bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- Main([]string{"serve", "-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0"}, &out, os.Stderr)
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not come up")
	}

	// startPprof printed its bound address before the serving listener came up.
	var pprofAddr string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "ftbfs: pprof on ") {
			pprofAddr = strings.Fields(line)[3]
		}
	}
	if pprofAddr == "" {
		t.Fatalf("no pprof address in output:\n%s", out.String())
	}
	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug listener /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("the serving listener answered /debug/pprof/ — profiling must stay on the debug listener")
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exited %d; output:\n%s", code, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down")
	}
}
