package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ftbfs"
	"ftbfs/internal/core"
	"ftbfs/internal/server"
	"ftbfs/internal/store"
)

// shardByID returns the local shard behind a member.
func shardByID(t testing.TB, lc *LocalCluster, id string) *LocalShard {
	t.Helper()
	for _, sh := range lc.Shards {
		if sh.ID == id {
			return sh
		}
	}
	t.Fatalf("no local shard %s", id)
	return nil
}

// buildKeys lists the store keys of a /build request on lineage fp: the
// edge pairs under the default algorithm, then the vertex sources.
func buildKeys(fp uint64, req server.BuildRequest) []store.Key {
	var keys []store.Key
	for _, p := range req.ResolvedPairs() {
		keys = append(keys, store.Key{Graph: fp, Source: p.Source, Eps: p.Eps})
	}
	for _, src := range req.VertexSources {
		keys = append(keys, store.VertexKey(fp, src))
	}
	return keys
}

// singleNodeBuild answers req on a fresh single node, the body a routed
// /build must reproduce byte for byte.
func singleNodeBuild(t testing.TB, req server.BuildRequest) (int, string) {
	t.Helper()
	st, err := store.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(st))
	defer ts.Close()
	return postJSON(t, ts.URL+"/build", req, nil)
}

// totalBuilds sums the structures every shard's store built.
func totalBuilds(lc *LocalCluster) uint64 {
	var n uint64
	for _, sh := range lc.Shards {
		n += sh.Store.Stats().Builds
	}
	return n
}

// TestRouterBuildRecordIdentity is the build-once gate: over random graphs,
// both failure models and R ∈ {2, 3}, a routed /build runs each structure's
// construction exactly once in the whole cluster, and every owner then holds
// a record byte-identical to the slab of a local build — the builder's own
// and the installed copies alike.
func TestRouterBuildRecordIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, replicas := range []int{2, 3} {
		for trial := 0; trial < 2; trial++ {
			n := 30 + rng.Intn(30)
			seed := rng.Int63()
			t.Run(fmt.Sprintf("R%d/n%d", replicas, n), func(t *testing.T) {
				lc, err := StartLocal(4, LocalOptions{Replicas: replicas})
				if err != nil {
					t.Fatal(err)
				}
				defer lc.Close()
				g, _ := clusterGraph(n, n, seed)
				var text bytes.Buffer
				if err := g.Write(&text); err != nil {
					t.Fatal(err)
				}
				req := server.BuildRequest{
					Graph:         text.String(),
					Sources:       []int{0, rng.Intn(n), rng.Intn(n)},
					Eps:           []float64{0.2, 0.5},
					VertexSources: []int{rng.Intn(n), rng.Intn(n)},
				}
				var resp server.BuildResponse
				if code, body := postJSON(t, lc.URL()+"/build", req, &resp); code != http.StatusOK {
					t.Fatalf("/build: %d %s", code, body)
				}
				keys := buildKeys(g.Lineage(), req)
				distinct := make(map[store.Key]bool)
				for _, k := range keys {
					distinct[k] = true
				}
				if got := totalBuilds(lc); got != uint64(len(distinct)) {
					t.Fatalf("shards built %d structures, want %d (one per key)", got, len(distinct))
				}
				for k := range distinct {
					var want bytes.Buffer
					var err error
					if k.Model == core.ModelVertex {
						var vst *ftbfs.VertexStructure
						if vst, err = ftbfs.BuildVertex(g, k.Source); err == nil {
							err = vst.SaveSlab(&want)
						}
					} else {
						var st *ftbfs.Structure
						if st, err = ftbfs.Build(g, k.Source, k.Eps); err == nil {
							err = st.SaveSlab(&want)
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					owners := lc.Router.Membership().Owners(KeyHash(k))
					if len(owners) != replicas {
						t.Fatalf("%v has %d owners, want %d", k, len(owners), replicas)
					}
					for _, m := range owners {
						got, err := shardByID(t, lc, m.ID).Store.ExportRecord(k)
						if err != nil {
							t.Fatalf("owner %s of %v: %v", m.ID, k, err)
						}
						if !bytes.Equal(got, want.Bytes()) {
							t.Fatalf("owner %s of %v holds a %d-byte record that differs from the local build's %d-byte slab",
								m.ID, k, len(got), want.Len())
						}
					}
				}
			})
		}
	}
}

// TestRouterBuildFailover kills one shard before a /build, with no probe to
// mark it down: a key whose first owner is dead goes to its next owner, the
// answer is a single node's, every live owner holds every key, and no key
// is built twice.
func TestRouterBuildFailover(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	g, _ := clusterGraph(60, 90, 31)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	req := server.BuildRequest{
		Graph:         text.String(),
		Sources:       []int{0, 5, 11, 17, 23, 29, 35, 41},
		Eps:           []float64{0.3},
		VertexSources: []int{2, 13},
	}
	keys := buildKeys(g.Lineage(), req)
	dead := lc.Router.Membership().Owners(KeyHash(keys[0]))[0].ID
	for i, sh := range lc.Shards {
		if sh.ID == dead {
			lc.KillShard(i)
		}
	}
	rc, rb := postJSON(t, lc.URL()+"/build", req, nil)
	nc, nb := singleNodeBuild(t, req)
	if rc != http.StatusOK || rc != nc || rb != nb {
		t.Fatalf("router %d %q, single node %d %q; want both 200 and the same body", rc, rb, nc, nb)
	}
	failedOver := 0
	for _, k := range keys {
		owners := lc.Router.Membership().Owners(KeyHash(k))
		for _, m := range owners {
			if m.ID != dead && !shardByID(t, lc, m.ID).Store.Has(k) {
				t.Fatalf("live owner %s of %v does not hold it", m.ID, k)
			}
		}
		if owners[0].ID == dead {
			failedOver++
		}
	}
	if failedOver == 0 {
		t.Fatal("no key had the dead shard as its builder; the test tested nothing")
	}
	if got := totalBuilds(lc); got != uint64(len(keys)) {
		t.Fatalf("shards built %d structures, want %d (one per key)", got, len(keys))
	}
}

// holdBuilds forwards every request to h except POST /build, which it
// leaves unanswered until the caller gives up or release closes — a builder
// whose reply never arrives.
type holdBuilds struct {
	h       http.Handler
	release chan struct{}
}

func (p holdBuilds) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/build" {
		p.h.ServeHTTP(w, r)
		return
	}
	select {
	case <-r.Context().Done():
	case <-p.release:
	}
	http.Error(w, "build held", http.StatusServiceUnavailable)
}

// TestRouterBuildHungBuilder re-joins the first owner of a key under an
// address that never answers /build. Its keys are hedged to their next
// owners once half of the build budget has passed, so the answer is a
// single node's and arrives well inside the budget; every key is built
// once, and every owner holds every key — the silent one by pulls, which it
// still answers.
func TestRouterBuildHungBuilder(t *testing.T) {
	const budget = 4 * time.Second
	lc, err := StartLocal(3, LocalOptions{Replicas: 2, Router: RouterOptions{BuildTimeout: budget}})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	g, _ := clusterGraph(60, 90, 41)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	req := server.BuildRequest{
		Graph:         text.String(),
		Sources:       []int{0, 7, 14, 21, 28, 35},
		Eps:           []float64{0.3},
		VertexSources: []int{3, 10},
	}
	keys := buildKeys(g.Lineage(), req)
	silent := shardByID(t, lc, lc.Router.Membership().Owners(KeyHash(keys[0]))[0].ID)
	release := make(chan struct{})
	proxy := httptest.NewServer(holdBuilds{silent.Server, release})
	defer proxy.Close()
	defer close(release)
	lc.Router.Membership().Join(silent.ID, proxy.URL)

	start := time.Now()
	rc, rb := postJSON(t, lc.URL()+"/build", req, nil)
	elapsed := time.Since(start)
	nc, nb := singleNodeBuild(t, req)
	if rc != http.StatusOK || rc != nc || rb != nb {
		t.Fatalf("router %d %q, single node %d %q; want both 200 and the same body", rc, rb, nc, nb)
	}
	if elapsed > budget*7/8 { // the hedge fires at half the budget
		t.Fatalf("/build answered after %v of its %v budget; the silent builder's keys were not hedged", elapsed, budget)
	}
	for _, k := range keys {
		for _, m := range lc.Router.Membership().Owners(KeyHash(k)) {
			if !shardByID(t, lc, m.ID).Store.Has(k) {
				t.Fatalf("owner %s of %v does not hold it after /build", m.ID, k)
			}
		}
	}
	if got := totalBuilds(lc); got != uint64(len(keys)) {
		t.Fatalf("shards built %d structures, want %d (one per key)", got, len(keys))
	}
}

// refusePath forwards every request to h except those to path, which it
// refuses the way a shard whose disk or peer link is broken would.
type refusePath struct {
	h    http.Handler
	path string
}

func (p refusePath) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == p.path {
		http.Error(w, p.path+" refused", http.StatusServiceUnavailable)
		return
	}
	p.h.ServeHTTP(w, r)
}

// TestRouterBuildInstallFallback re-joins one member under an address that
// refuses every pull. The keys it should install are built on it instead,
// so after /build every owner holds every key.
func TestRouterBuildInstallFallback(t *testing.T) {
	lc, err := StartLocal(3, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	refuser := lc.Shards[1]
	proxy := httptest.NewServer(refusePath{refuser.Server, "/handoff/pull"})
	defer proxy.Close()
	lc.Router.Membership().Join(refuser.ID, proxy.URL)

	g, _ := clusterGraph(60, 90, 37)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	req := server.BuildRequest{
		Graph:         text.String(),
		Sources:       []int{0, 6, 12, 18, 24, 30},
		Eps:           []float64{0.3},
		VertexSources: []int{4, 9},
	}
	if code, body := postJSON(t, lc.URL()+"/build", req, nil); code != http.StatusOK {
		t.Fatalf("/build: %d %s", code, body)
	}
	keys := buildKeys(g.Lineage(), req)
	fallbacks := 0
	for _, k := range keys {
		owners := lc.Router.Membership().Owners(KeyHash(k))
		for _, m := range owners {
			if !shardByID(t, lc, m.ID).Store.Has(k) {
				t.Fatalf("owner %s of %v does not hold it after /build", m.ID, k)
			}
		}
		if owners[1].ID == refuser.ID {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Fatal("the refusing member installs no key; the test tested nothing")
	}
	if st := refuser.Store.Stats(); st.HandoffsIn != 0 {
		t.Fatalf("the refusing member installed %d records through a refused pull", st.HandoffsIn)
	}
	if got, want := totalBuilds(lc), uint64(len(keys)+fallbacks); got != want {
		t.Fatalf("shards built %d structures, want %d (one per key plus %d fallbacks)", got, want, fallbacks)
	}
}

// TestRouterBuildFailureStillInstalls re-joins both owners of one key under
// addresses that refuse /build. That key fails the build with a gateway
// fault, but the keys the third member built are still installed on their
// other owners, which answer pulls.
func TestRouterBuildFailureStillInstalls(t *testing.T) {
	lc, err := StartLocal(3, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	g, _ := clusterGraph(60, 90, 43)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	req := server.BuildRequest{
		Graph:         text.String(),
		Sources:       []int{0, 8, 16, 24, 32, 40},
		Eps:           []float64{0.3},
		VertexSources: []int{5, 12},
	}
	keys := buildKeys(g.Lineage(), req)
	refusers := make(map[string]bool)
	for _, m := range lc.Router.Membership().Owners(KeyHash(keys[0])) {
		refusers[m.ID] = true
		proxy := httptest.NewServer(refusePath{shardByID(t, lc, m.ID).Server, "/build"})
		defer proxy.Close()
		lc.Router.Membership().Join(m.ID, proxy.URL)
	}
	if code, body := postJSON(t, lc.URL()+"/build", req, nil); code != http.StatusBadGateway {
		t.Fatalf("/build: %d %s, want 502 (both owners of %v refuse it)", code, body, keys[0])
	}
	installed := 0
	for _, k := range keys {
		owners := lc.Router.Membership().Owners(KeyHash(k))
		if refusers[owners[0].ID] && refusers[owners[1].ID] {
			continue
		}
		for _, m := range owners {
			if !shardByID(t, lc, m.ID).Store.Has(k) {
				t.Fatalf("owner %s of %v does not hold it after the failed /build", m.ID, k)
			}
		}
		installed++
	}
	if installed == 0 {
		t.Fatal("every key is owned by the refusers; the test tested nothing")
	}
}
