package main

import (
	"encoding/json"
	"net"
	"net/http"
	"strconv"
)

// echo is a standard-library HTTP server on loopback that answers the
// workload's own requests with the benchmark's own types: it parses a point
// query's URL or decodes a vector's JSON body, and encodes an answer of the
// same shape. Its round trip runs on the same runtime, network stack and
// JSON code as a routed request but touches none of the program's code, so
// its speed follows the host's and not the program's. The timed phase
// alternates slices between the workload and the echo, and the gated
// figures are the workload's over the echo's.
type echo struct {
	srv  *http.Server
	base string
	done chan struct{}
}

// echoSlot is one /batch-query slot as the echo decodes it.
type echoSlot struct {
	Source       *int     `json:"source"`
	V            int      `json:"v"`
	Eps          *float64 `json:"eps"`
	Fail         [2]int   `json:"fail"`
	FailedVertex *int     `json:"failed_vertex"`
}

func startEcho() (*echo, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/batch-query", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Graph   string     `json:"graph"`
			Queries []echoSlot `json:"queries"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := struct {
			Dists []int `json:"dists"`
		}{make([]int, len(req.Queries))}
		for i, q := range req.Queries {
			resp.Dists[i] = q.V
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&resp) // a failed write shows at the client
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		v, err := strconv.Atoi(q.Get("v"))
		if err != nil || q.Get("graph") == "" {
			http.Error(w, "bad query", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct { // a failed write shows at the client
			Dist int `json:"dist"`
		}{v})
	})
	e := &echo{srv: &http.Server{Handler: mux}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		_ = e.srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return e, nil
}

// close shuts the echo and its connections down and waits for its server
// goroutine.
func (e *echo) close() {
	e.srv.Close()
	<-e.done
}
