package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"time"

	"ftbfs/internal/cluster"
	"ftbfs/internal/server"
)

const (
	clusterShards   = 4
	clusterReplicas = 2
)

// httpClient is one benchmark client: a single keep-alive connection and a
// reused response buffer.
type httpClient struct {
	c   *http.Client
	tr  *http.Transport
	buf bytes.Buffer
}

func newHTTPClient() *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpClient{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr}
}

// do sends one request and returns the status and the body, which stays
// valid until the next call.
func (h *httpClient) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	h.buf.Reset()
	_, err = h.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, h.buf.Bytes(), err
}

func (h *httpClient) close() { h.tr.CloseIdleConnections() }

// deployment is one booted cluster serving a fixture.
type deployment struct {
	lc    *cluster.LocalCluster
	base  string
	build server.BuildResponse
}

func (d *deployment) close() { d.lc.Close() }

// shard returns the local shard with the given member ID.
func (d *deployment) shard(id string) *cluster.LocalShard {
	for _, sh := range d.lc.Shards {
		if sh.ID == id {
			return sh
		}
	}
	return nil
}

// deploy boots the cluster at production defaults, builds the fixture
// through the router, and fills the serving state the shards build lazily:
// on every shard, every resident fixture structure answers its probe query
// in-process, which builds its query plan and intact distances. It then asks
// every fixture structure once through the router. It returns the set-up
// time and the bytes the cluster holds once the fixture is served: live heap
// after the serving state is filled minus live heap before the boot. That
// reading, taken before the routed probes and left out of the set-up time,
// misses only the router's wire connections, which the routed probes dial
// lazily — up to four per shard, depending on which shards happen to be
// primaries. goroutines is the count with no cluster running.
func deploy(fx *fixture, goroutines int) (*deployment, time.Duration, float64, error) {
	before := liveHeap(goroutines)
	start := time.Now()
	lc, err := cluster.StartLocal(clusterShards, cluster.LocalOptions{Replicas: clusterReplicas})
	if err != nil {
		return nil, 0, 0, err
	}
	d := &deployment{lc: lc, base: lc.URL()}
	hc := newHTTPClient()
	defer hc.close()
	if err := d.buildFixture(hc, fx); err != nil {
		d.close()
		return nil, 0, 0, err
	}
	if err := d.fillServingState(fx); err != nil {
		d.close()
		return nil, 0, 0, err
	}
	took := time.Since(start)
	held := float64(liveHeap(runtime.NumGoroutine())) - float64(before)
	start = time.Now()
	for i := range fx.probes {
		if err := d.askOnce(hc, &fx.probes[i]); err != nil {
			d.close()
			return nil, 0, 0, err
		}
	}
	return d, took + time.Since(start), held, nil
}

// buildFixture posts the fixture's /build and checks the response shape.
func (d *deployment) buildFixture(hc *httpClient, fx *fixture) error {
	body, err := json.Marshal(&fx.build)
	if err != nil {
		return err
	}
	code, resp, err := hc.do(http.MethodPost, d.base+"/build", body)
	if err != nil {
		return fmt.Errorf("fixture /build: %w", err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("fixture /build: status %d: %s", code, bytes.TrimSpace(resp))
	}
	if err := json.Unmarshal(resp, &d.build); err != nil {
		return fmt.Errorf("fixture /build: %w", err)
	}
	if d.build.Fingerprint != fx.fp || len(d.build.Structures) != len(fx.edge) || len(d.build.VertexStructures) != len(fx.vertex) {
		return fmt.Errorf("fixture /build answered fingerprint %s with %d+%d structures, want %s with %d+%d",
			d.build.Fingerprint, len(d.build.Structures), len(d.build.VertexStructures), fx.fp, len(fx.edge), len(fx.vertex))
	}
	return nil
}

// fillServingState answers every fixture structure's probe in-process on
// every shard that holds it, through the structure's oracle pool as the
// shard does, and checks each answer.
func (d *deployment) fillServingState(fx *fixture) error {
	for i := range fx.probes {
		p := &fx.probes[i]
		for _, sh := range d.lc.Shards {
			var got int
			var err error
			if p.ref.vertex {
				vst, ok := sh.Store.GetVertex(p.ref.key.Graph, p.ref.source)
				if !ok {
					continue
				}
				got, err = answerVertex(vst, p)
			} else {
				st, ok := sh.Store.Get(p.ref.key)
				if !ok {
					continue
				}
				got, err = answerEdge(st, p)
			}
			if err != nil {
				return fmt.Errorf("probe of %v on %s: %w", p.ref.key, sh.ID, err)
			}
			if got != p.want {
				return fmt.Errorf("probe of %v on %s: got %d, want %d", p.ref.key, sh.ID, got, p.want)
			}
		}
	}
	return nil
}

// askOnce sends one structure's probe through the router and checks it.
func (d *deployment) askOnce(hc *httpClient, p *pointReq) error {
	var st opStats
	doPoint(hc, d.base, p, 0, &st, nil)
	if st.ok != 1 || st.wrong != 0 {
		return fmt.Errorf("first routed answer of %v: %s%s", p.ref.key, st.firstFail, st.firstWrong)
	}
	return nil
}

// liveHeap returns the live heap in bytes once the goroutine count is back
// to base (closed listeners and connections wind down asynchronously) or
// two seconds passed. Two collections also empty sync.Pool victim caches.
func liveHeap(base int) uint64 {
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupRuns is how many times an untraced run sets up; it reports the
// medians.
const setupRuns = 5

// setUp deploys the fixture setupRuns times and keeps the last deployment.
// It returns the median set-up time in seconds and the median heap the
// served fixture holds in MB; the local builds and reference tables are
// live before every reading, so they are excluded.
func setUp(fx *fixture) (*deployment, float64, float64, error) {
	var secs, mbs []float64
	var d *deployment
	goroutines := runtime.NumGoroutine()
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.close()
		}
		var took time.Duration
		var held float64
		var err error
		if d, took, held, err = deploy(fx, goroutines); err != nil {
			return nil, 0, 0, err
		}
		secs = append(secs, took.Seconds())
		mbs = append(mbs, held/1e6)
	}
	return d, median(secs), median(mbs), nil
}

// verifyResident runs Verify on every fixture structure resident on every
// shard; each structure must be resident somewhere.
func verifyResident(d *deployment, fx *fixture) error {
	for _, ref := range fx.structs() {
		held := 0
		for _, sh := range d.lc.Shards {
			var err error
			if ref.vertex {
				vst, ok := sh.Store.GetVertex(ref.key.Graph, ref.source)
				if !ok {
					continue
				}
				err = vst.Verify()
			} else {
				st, ok := sh.Store.Get(ref.key)
				if !ok {
					continue
				}
				err = st.Verify()
			}
			if err != nil {
				return fmt.Errorf("Verify %v on %s: %w", ref.key, sh.ID, err)
			}
			held++
		}
		if held == 0 {
			return fmt.Errorf("structure %v is resident on no shard", ref.key)
		}
	}
	return nil
}

// median returns the middle value (mean of the two middle ones for even n).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. It sorts a copy: latencies stay aligned with their start
// times.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Sorted(slices.Values(xs))
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
