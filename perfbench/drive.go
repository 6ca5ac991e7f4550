package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"syscall"
	"time"

	"ftbfs/internal/server"
)

// span is one timed call: which cut it belongs to, the index of the
// workload request it replays, and its start and end relative to the run's
// trace origin.
type span struct {
	name       string
	req        int
	start, end time.Duration
}

// spanLog collects spans in memory; one per goroutine, merged at the end.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(name string, req int, t0, t1 time.Time) {
	if l != nil {
		l.spans = append(l.spans, span{name: name, req: req, start: t0.Sub(l.origin), end: t1.Sub(l.origin)})
	}
}

// opStats counts one operation type of a closed loop. Latencies (µs) and
// start times are kept for successful operations only; a failed or refused
// one counts in failed.
type opStats struct {
	sent, ok, failed int
	wrong            int
	slots, slotsBad  int // batch slots attempted, and failed or refused
	lat              []float64
	at               []time.Time
	firstFail        string
	firstWrong       string
}

func (s *opStats) succeed(t0, t1 time.Time) {
	s.ok++
	s.lat = append(s.lat, float64(t1.Sub(t0))/1e3)
	s.at = append(s.at, t0)
}

func (s *opStats) fail(msg string) {
	s.failed++
	if s.firstFail == "" {
		s.firstFail = msg
	}
}

func (s *opStats) mismatch(msg string) {
	s.wrong++
	if s.firstWrong == "" {
		s.firstWrong = msg
	}
}

func (s *opStats) merge(o *opStats) {
	s.sent += o.sent
	s.ok += o.ok
	s.failed += o.failed
	s.wrong += o.wrong
	s.slots += o.slots
	s.slotsBad += o.slotsBad
	s.lat = append(s.lat, o.lat...)
	s.at = append(s.at, o.at...)
	if s.firstFail == "" {
		s.firstFail = o.firstFail
	}
	if s.firstWrong == "" {
		s.firstWrong = o.firstWrong
	}
}

// doPoint sends one routed point query and checks the answer.
func doPoint(hc *httpClient, base string, p *pointReq, idx int, st *opStats, log *spanLog) {
	st.sent++
	t0 := time.Now()
	code, body, err := hc.do(http.MethodGet, base+p.url, nil)
	t1 := time.Now()
	if err != nil || code != http.StatusOK {
		st.fail(fmt.Sprintf("%s: status %d: %v %s", p.url, code, err, bytes.TrimSpace(body)))
		return
	}
	var r struct {
		Dist *int `json:"dist"`
	}
	if err := json.Unmarshal(body, &r); err != nil || r.Dist == nil {
		st.fail(fmt.Sprintf("%s: bad body %q", p.url, body))
		return
	}
	st.succeed(t0, t1)
	log.add("e2e.point", idx, t0, t1)
	if *r.Dist != p.want {
		st.mismatch(fmt.Sprintf("%s: got %d, want %d", p.url, *r.Dist, p.want))
	}
}

// doBatch posts one /batch-query vector and checks every slot.
func doBatch(hc *httpClient, base string, b *batchReq, idx int, st *opStats, log *spanLog) {
	st.sent++
	st.slots += len(b.slots)
	t0 := time.Now()
	code, body, err := hc.do(http.MethodPost, base+"/batch-query", b.body)
	t1 := time.Now()
	var r server.BatchQueryResponse
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &r)
	}
	if err != nil || code != http.StatusOK || len(r.Dists) != len(b.slots) || (r.Errors != nil && len(r.Errors) != len(b.slots)) {
		st.slotsBad += len(b.slots)
		st.fail(fmt.Sprintf("batch %d: status %d: %v %.200s", idx, code, err, bytes.TrimSpace(body)))
		return
	}
	bad := 0
	for i, s := range b.slots {
		if r.Errors != nil && r.Errors[i] != "" {
			bad++
			if st.firstFail == "" {
				st.firstFail = fmt.Sprintf("batch %d slot %d: %s", idx, i, r.Errors[i])
			}
			continue
		}
		if r.Dists[i] != s.want {
			st.mismatch(fmt.Sprintf("batch %d slot %d (%v v=%d fail %d,%d): got %d, want %d", idx, i, s.ref.key, s.v, s.a, s.b, r.Dists[i], s.want))
		}
	}
	st.slotsBad += bad
	if bad > 0 {
		st.failed++
		return
	}
	st.succeed(t0, t1)
	log.add("e2e.batch", idx, t0, t1)
}

// Writer operation names, in loop order.
const (
	opDelete = "mutate_delete"
	opInsert = "mutate_insert"
	opBuild  = "build"
)

// writer is churn's write loop: delete the churn edges (delta path),
// re-insert them (full rebuild), then /build a fresh seeded graph.
type writer struct {
	fx       *fixture
	seed     int64
	del, ins []byte
	next     int // index of the next operation in the loop
	fresh    int // fresh graphs built so far
}

func newWriter(fx *fixture, seed int64) (*writer, error) {
	w := &writer{fx: fx, seed: seed}
	for _, op := range []string{"delete", "insert"} {
		req := server.MutateRequest{Graph: fx.fp}
		for _, e := range fx.churn {
			req.Mutations = append(req.Mutations, server.MutationJSON{Op: op, U: e[0], V: e[1]})
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		if op == "delete" {
			w.del = body
		} else {
			w.ins = body
		}
	}
	return w, nil
}

// step runs the loop's next operation. The fresh graph of a /build is
// generated before the clock starts. The loop carries on after a failed
// operation: the next one is sent as if it had succeeded.
func (w *writer) step(hc *httpClient, base string, ops map[string]*opStats, log *spanLog) error {
	i := w.next
	w.next++
	name := []string{opDelete, opInsert, opBuild}[i%3]
	st := ops[name]
	path, body := "/mutate", w.del
	var fresh *testGraph
	switch name {
	case opInsert:
		body = w.ins
	case opBuild:
		tg, req, err := freshBuild(w.seed, w.fresh)
		if err != nil {
			return err
		}
		w.fresh++
		if body, err = json.Marshal(&req); err != nil {
			return err
		}
		path, fresh = "/build", tg
	}
	st.sent++
	t0 := time.Now()
	code, resp, err := hc.do(http.MethodPost, base+path, body)
	t1 := time.Now()
	if err != nil || code != http.StatusOK {
		st.fail(fmt.Sprintf("%s: status %d: %v %s", name, code, err, bytes.TrimSpace(resp)))
		return nil
	}
	if fresh != nil {
		var br server.BuildResponse
		if err := json.Unmarshal(resp, &br); err != nil || br.Fingerprint != fresh.fp ||
			len(br.Structures) != len(churnEdgeSources)*2 || len(br.VertexStructures) != len(churnVertexSources) {
			st.mismatch(fmt.Sprintf("build: unexpected response %.200s", resp))
		}
	} else {
		var mr server.MutateResponse
		if err := json.Unmarshal(resp, &mr); err != nil || mr.Graph != w.fx.fp {
			st.mismatch(fmt.Sprintf("%s: unexpected response %.200s", name, resp))
		}
	}
	st.succeed(t0, t1)
	log.add("e2e."+name, i, t0, t1)
	return nil
}

// streams are a workload's seeded requests.
type streams struct {
	points  []pointReq
	batches []batchReq
	writer  *writer
}

// phase is one closed-loop interval's outcome: the workload's operations,
// the echo round trips, and the process CPU time spent in each slice.
type phase struct {
	ops   map[string]*opStats
	echo  *opStats
	spans []span
	start time.Time
	cpu   []time.Duration
}

// perSlice groups st's latencies by the slice their operation started in.
func (ph *phase) perSlice(st *opStats) [][]float64 {
	out := make([][]float64, len(ph.cpu))
	for i, at := range st.at {
		if k := int(at.Sub(ph.start) / slice); k < len(out) {
			out[k] = append(out[k], st.lat[i])
		}
	}
	return out
}

// relP50 returns the median, over every pair of a workload slice and the
// echo slice after it, of the workload's median latency over the echo's. A
// burst of load on the host then moves the pairs it covers, not the result.
func (ph *phase) relP50(read *opStats) float64 {
	r, e := ph.perSlice(read), ph.perSlice(ph.echo)
	var rel []float64
	for k := 0; k+1 < len(r); k += 2 {
		if len(r[k]) > 0 && len(e[k+1]) > 0 {
			rel = append(rel, quantile(r[k], 0.5)/quantile(e[k+1], 0.5))
		}
	}
	return median(rel)
}

// cpuSplit returns the process CPU time over the phase's workload slices and
// over its echo slices.
func (ph *phase) cpuSplit() (read, echo time.Duration) {
	for k, c := range ph.cpu {
		if k%2 == 1 {
			echo += c
		} else {
			read += c
		}
	}
	return read, echo
}

// warmup is the untimed closed loop every run drives before it measures:
// plans, oracle pools and wire connections are built lazily.
const warmup = time.Second

// slice is the unit a phase with an echo alternates on. Clients send the
// workload's requests in even slices and echo round trips of the same
// requests in odd ones, so the workload and the echo sample the host at the
// same moments, and the process CPU of each slice belongs to one of them.
const slice = 100 * time.Millisecond

// runLoop drives the workload's closed loop for d. Point-mix runs two point
// clients, whatif-batch one batch client, churn one point reader beside one
// writer; each waits for an answer before sending its next request. With a
// non-empty echoBase the readers alternate slices between the workload and
// the echo; churn's writer runs throughout. Spans are recorded when origin is
// non-zero. Clients start at offset in their streams and advance from there,
// so consecutive phases replay different requests.
func runLoop(workload, base, echoBase string, s *streams, d time.Duration, origin time.Time, offset int) (*phase, error) {
	start := time.Now()
	deadline := start.Add(d)
	inEcho := func() bool { return echoBase != "" && time.Since(start)/slice%2 == 1 }
	type client struct {
		ops  map[string]*opStats
		echo opStats
		log  *spanLog
		err  error
	}
	newClient := func(names ...string) *client {
		c := &client{ops: make(map[string]*opStats)}
		for _, n := range names {
			c.ops[n] = &opStats{}
		}
		if !origin.IsZero() {
			c.log = &spanLog{origin: origin}
		}
		return c
	}
	// echoOnce sends one echo round trip on ec and records its latency.
	echoOnce := func(c *client, ec *httpClient, method, url string, body []byte) bool {
		c.echo.sent++
		t0 := time.Now()
		code, resp, err := ec.do(method, echoBase+url, body)
		t1 := time.Now()
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("echo %s: status %d: %.200s", url, code, bytes.TrimSpace(resp))
		}
		if err != nil {
			c.err = err
			return false
		}
		c.echo.succeed(t0, t1)
		return true
	}
	pointClient := func(c *client, first, stride int) {
		hc, ec := newHTTPClient(), newHTTPClient()
		defer hc.close()
		defer ec.close()
		for i := first; time.Now().Before(deadline); i += stride {
			p := &s.points[i%len(s.points)]
			if inEcho() {
				if !echoOnce(c, ec, http.MethodGet, p.url, nil) {
					return
				}
				continue
			}
			doPoint(hc, base, p, i%len(s.points), c.ops["point"], c.log)
		}
	}
	var clients []*client
	var runs []func()
	switch workload {
	case "point-mix":
		for k := 0; k < 2; k++ {
			c, k := newClient("point"), k
			clients = append(clients, c)
			runs = append(runs, func() { pointClient(c, offset+k, 2) })
		}
	case "whatif-batch":
		c := newClient("batch")
		clients = append(clients, c)
		runs = append(runs, func() {
			hc, ec := newHTTPClient(), newHTTPClient()
			defer hc.close()
			defer ec.close()
			for i := offset; time.Now().Before(deadline); i++ {
				b := &s.batches[i%len(s.batches)]
				if inEcho() {
					if !echoOnce(c, ec, http.MethodPost, "/batch-query", b.body) {
						return
					}
					continue
				}
				doBatch(hc, base, b, i%len(s.batches), c.ops["batch"], c.log)
			}
		})
	case "churn":
		r := newClient("point")
		w := newClient(opDelete, opInsert, opBuild)
		clients = append(clients, r, w)
		runs = append(runs, func() { pointClient(r, offset, 1) }, func() {
			hc := newHTTPClient()
			defer hc.close()
			for time.Now().Before(deadline) {
				if err := s.writer.step(hc, base, w.ops, w.log); err != nil {
					w.err = err
					return
				}
			}
		})
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	ph := &phase{ops: make(map[string]*opStats), echo: &opStats{}, start: start}
	var wg sync.WaitGroup
	for _, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	// Sample the process CPU at every slice boundary; what runs after the
	// last boundary goes with the last slice.
	last := cpuTime()
	for k := 1; start.Add(time.Duration(k) * slice).Before(deadline); k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * slice)))
		now := cpuTime()
		ph.cpu = append(ph.cpu, now-last)
		last = now
	}
	wg.Wait()
	ph.cpu = append(ph.cpu, cpuTime()-last)
	for _, c := range clients {
		if c.err != nil {
			return nil, c.err
		}
		for n, st := range c.ops {
			if ph.ops[n] == nil {
				ph.ops[n] = &opStats{}
			}
			ph.ops[n].merge(st)
		}
		if c.log != nil {
			ph.spans = append(ph.spans, c.log.spans...)
		}
		ph.echo.merge(&c.echo)
	}
	return ph, nil
}

// readOp names the workload's read operation.
func readOp(workload string) string {
	if workload == "whatif-batch" {
		return "batch"
	}
	return "point"
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
