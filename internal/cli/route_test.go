package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"ftbfs"
)

func TestParseShardSpec(t *testing.T) {
	got, err := parseShardSpec("s0=127.0.0.1:7001, http://127.0.0.1:7002/ ,s2=https://h:7003")
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{
		{"s0", "http://127.0.0.1:7001"},
		{"127.0.0.1:7002", "http://127.0.0.1:7002"},
		{"s2", "https://h:7003"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("parseShardSpec = %v, want %v", got, want)
	}
	if _, err := parseShardSpec(""); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := parseShardSpec("a=h:1,a=h:2"); err == nil {
		t.Fatal("duplicate shard id accepted")
	}
}

func TestRouteBadFlags(t *testing.T) {
	if _, _, code := run(t, "route"); code != 1 {
		t.Fatal("route without -shards accepted")
	}
	if _, _, code := run(t, "route", "-bogus"); code != 1 {
		t.Fatal("bad flag accepted")
	}
}

// TestRouteCommand boots two shard serve commands and a router over them,
// builds through the router, and checks a failure query against a local
// oracle — the full `ftbfs serve -shard -wire` + `ftbfs route` wiring end to
// end. With -probe 0 the one sweep route runs before serving is all there
// is, and it alone must learn each shard's wire address.
func TestRouteCommand(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	oldCtx, oldReady := serveSignalContext, serveReady
	defer func() { serveSignalContext, serveReady = oldCtx, oldReady }()
	serveSignalContext = func() (context.Context, context.CancelFunc) {
		return ctx, func() {}
	}
	addrc := make(chan string, 3)
	serveReady = func(addr string) { addrc <- addr }

	waitAddr := func(what string) string {
		select {
		case a := <-addrc:
			return a
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not come up", what)
			return ""
		}
	}

	done := make(chan int, 3)
	var outs [3]bytes.Buffer
	launch := func(i int, args ...string) {
		go func() { done <- Main(args, &outs[i], os.Stderr) }()
	}
	launch(0, "serve", "-addr", "127.0.0.1:0", "-wire", "127.0.0.1:0", "-shard", "-id", "s0")
	shard0 := waitAddr("shard 0")
	launch(1, "serve", "-addr", "127.0.0.1:0", "-wire", "127.0.0.1:0", "-shard", "-id", "s1")
	shard1 := waitAddr("shard 1")
	launch(2, "route", "-addr", "127.0.0.1:0", "-probe", "0", "-replication", "2",
		"-shards", "s0="+shard0+",s1="+shard1)
	router := "http://" + waitAddr("router")

	// Build through the router: a ring with chords, small enough to be fast.
	const n = 16
	g := ftbfs.NewGraph(n)
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
		g.MustAddEdge(i, (i+1)%n)
	}
	for i := 0; i < n/2; i += 2 {
		edges = append(edges, [2]int{i, i + n/2})
		g.MustAddEdge(i, i+n/2)
	}
	body, _ := json.Marshal(map[string]any{"n": n, "edges": edges, "eps": []float64{0.3}})
	resp, err := http.Post(router+"/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var br struct {
		Fingerprint string `json:"fingerprint"`
	}
	err = json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/build via router: %v (status %d)", err, resp.StatusCode)
	}

	truth, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	oracle := truth.Oracle()
	checked := 0
	for _, e := range edges {
		if truth.IsReinforced(e[0], e[1]) {
			continue
		}
		want, err := oracle.DistAvoiding(e[1], e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		r2, err := http.Get(fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=0.3&v=%d&fu=%d&fv=%d",
			router, br.Fingerprint, e[1], e[0], e[1]))
		if err != nil {
			t.Fatal(err)
		}
		var dr struct {
			Dist int `json:"dist"`
		}
		err = json.NewDecoder(r2.Body).Decode(&dr)
		r2.Body.Close()
		if err != nil || r2.StatusCode != http.StatusOK {
			t.Fatalf("routed /dist-avoiding: %v (status %d)", err, r2.StatusCode)
		}
		if dr.Dist != want {
			t.Fatalf("routed dist-avoiding(v=%d, fail=%v) = %d, want %d", e[1], e, dr.Dist, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no failable edges checked")
	}

	// Router /stats sees both shards.
	r3, err := http.Get(router + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var rs struct {
		Role   string `json:"role"`
		Shards []struct {
			ID      string `json:"id"`
			Healthy bool   `json:"healthy"`
		} `json:"shards"`
	}
	err = json.NewDecoder(r3.Body).Decode(&rs)
	r3.Body.Close()
	if err != nil || rs.Role != "router" || len(rs.Shards) != 2 {
		t.Fatalf("router /stats: %v %+v", err, rs)
	}

	cancel()
	for i := 0; i < 3; i++ {
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("a serve/route command exited %d\nouts: %q %q %q",
					code, outs[0].String(), outs[1].String(), outs[2].String())
			}
		case <-time.After(15 * time.Second):
			t.Fatal("serve/route did not shut down")
		}
	}
	if !strings.Contains(outs[2].String(), "routing on") {
		t.Fatalf("router startup banner missing: %q", outs[2].String())
	}
}
