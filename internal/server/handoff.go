package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ftbfs"
	"ftbfs/internal/core"
	"ftbfs/internal/store"
	"ftbfs/internal/wire"
)

// This file is the shard's handoff surface — how built structures move
// between shards when the cluster ring changes, without rebuilding:
//
//	GET  /handoff/keys    inventory of every exportable structure key
//	GET  /handoff/record  raw record bytes of one structure (octet-stream)
//	GET  /handoff/graph   canonical text of one registered graph
//	POST /handoff/pull    pull a key list FROM a named source shard
//
// The pull endpoint is receiver-driven: the cluster router tells the new
// owner what to pull and from whom, the receiver fetches graph + records
// (over the source's persistent wire connections when it advertises them,
// HTTP otherwise) and installs them through the store's zero-parse import
// path. The same frames also travel the binary protocol (THandoff/TGraph);
// *Server implements wire.HandoffBackend below.

// HandoffKeyInfo is the JSON form of one structure key on the handoff
// surface. Eps round-trips exactly through JSON (shortest-repr encoding)
// and the record URL (FormatFloat -1); Alg travels as the core algorithm
// code, Model as "vertex" or "" (edge).
type HandoffKeyInfo struct {
	Graph  string  `json:"graph"` // %016x fingerprint
	Source int     `json:"source"`
	Eps    float64 `json:"eps,omitempty"`
	Alg    int     `json:"alg,omitempty"`
	Model  string  `json:"model,omitempty"`
}

// HandoffKeyFor converts a registry key to its handoff JSON form.
func HandoffKeyFor(k store.Key) HandoffKeyInfo {
	info := HandoffKeyInfo{Graph: fmt.Sprintf("%016x", k.Graph), Source: k.Source}
	if k.Model == store.ModelVertex {
		info.Model = "vertex"
	} else {
		info.Eps = k.Eps
		info.Alg = int(k.Alg)
	}
	return info
}

// StoreKey converts back to the registry key, with the same validation the
// query paths apply (-0 ε folds to +0, finite ε, algorithm in range).
func (i HandoffKeyInfo) StoreKey() (store.Key, error) {
	fp, err := strconv.ParseUint(i.Graph, 16, 64)
	if err != nil {
		return store.Key{}, fmt.Errorf("bad graph fingerprint %q", i.Graph)
	}
	if i.Model == "vertex" {
		return store.VertexKey(fp, i.Source), nil
	}
	if i.Model != "" {
		return store.Key{}, fmt.Errorf("unknown model %q", i.Model)
	}
	e := i.Eps
	if math.IsNaN(e) || math.IsInf(e, 0) {
		return store.Key{}, fmt.Errorf("eps must be finite, got %v", e)
	}
	if e == 0 {
		e = 0
	}
	if i.Alg < 0 || i.Alg > int(core.Greedy) {
		return store.Key{}, fmt.Errorf("unknown algorithm code %d", i.Alg)
	}
	return store.Key{Graph: fp, Source: i.Source, Eps: e, Alg: ftbfs.Algorithm(i.Alg)}, nil
}

// WireKey converts to the binary-protocol handoff key.
func (i HandoffKeyInfo) WireKey() (wire.HandoffKey, error) {
	k, err := i.StoreKey()
	if err != nil {
		return wire.HandoffKey{}, err
	}
	return wire.HandoffKey{
		FP:      k.Graph,
		EpsBits: math.Float64bits(k.Eps),
		Source:  int32(k.Source),
		Alg:     int32(k.Alg),
		Vertex:  k.Model == store.ModelVertex,
	}, nil
}

// recordQuery encodes the /handoff/record URL parameters for a key.
// FormatFloat with precision -1 produces the shortest decimal that parses
// back to the exact same float, so the key survives the URL round trip.
func recordQuery(i HandoffKeyInfo) string {
	v := url.Values{}
	v.Set("graph", i.Graph)
	v.Set("source", strconv.Itoa(i.Source))
	if i.Model != "" {
		v.Set("model", i.Model)
	} else {
		v.Set("eps", strconv.FormatFloat(i.Eps, 'g', -1, 64))
		v.Set("alg", strconv.Itoa(i.Alg))
	}
	return v.Encode()
}

// HandoffKeysResponse is the reply of GET /handoff/keys.
type HandoffKeysResponse struct {
	Keys   []HandoffKeyInfo `json:"keys"`
	Graphs []string         `json:"graphs"`
}

func (s *Server) handleHandoffKeys(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.edge.Error(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	keys := s.store.Keys()
	resp := HandoffKeysResponse{Keys: make([]HandoffKeyInfo, len(keys))}
	for i, k := range keys {
		resp.Keys[i] = HandoffKeyFor(k)
	}
	for _, fp := range s.store.Graphs() {
		resp.Graphs = append(resp.Graphs, fmt.Sprintf("%016x", fp))
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handoffKeyFromQuery parses a structure key out of /handoff/record URL
// parameters (the inverse of recordQuery).
func handoffKeyFromQuery(r *http.Request) (store.Key, error) {
	vals := r.URL.Query()
	info := HandoffKeyInfo{Graph: vals.Get("graph"), Model: vals.Get("model")}
	var err error
	if info.Source, err = strconv.Atoi(vals.Get("source")); err != nil {
		return store.Key{}, fmt.Errorf("bad source=%q", vals.Get("source"))
	}
	if info.Model == "" {
		if info.Eps, err = strconv.ParseFloat(vals.Get("eps"), 64); err != nil {
			return store.Key{}, fmt.Errorf("bad eps=%q", vals.Get("eps"))
		}
		if info.Alg, err = strconv.Atoi(vals.Get("alg")); err != nil {
			return store.Key{}, fmt.Errorf("bad alg=%q", vals.Get("alg"))
		}
	}
	return info.StoreKey()
}

func (s *Server) handleHandoffRecord(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.edge.Error(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	k, err := handoffKeyFromQuery(r)
	if err != nil {
		s.edge.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	data, err := s.store.ExportRecord(k)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, store.ErrNotHeld) {
			code = http.StatusNotFound
		}
		s.edge.Error(w, code, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *Server) handleHandoffGraph(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.edge.Error(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	fp, err := strconv.ParseUint(r.URL.Query().Get("graph"), 16, 64)
	if err != nil {
		s.edge.Error(w, http.StatusBadRequest, fmt.Sprintf("bad graph fingerprint %q", r.URL.Query().Get("graph")))
		return
	}
	data, err := s.store.GraphText(fp)
	if err != nil {
		s.edge.Error(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// HandoffPullRequest is the body of POST /handoff/pull: the receiving shard
// pulls the listed keys from the named source. Wire, when non-empty, is the
// source's binary-protocol address — records stream over its persistent
// connections and only fall back to From's HTTP surface on a transport
// fault or an over-limit record.
type HandoffPullRequest struct {
	From string           `json:"from"`
	Wire string           `json:"wire,omitempty"`
	Keys []HandoffKeyInfo `json:"keys"`
}

// HandoffPullResponse summarises one pull: how many records installed, how
// many were already held (skipped), the bytes that actually moved, and
// per-key failure messages.
type HandoffPullResponse struct {
	Transferred int      `json:"transferred"`
	Skipped     int      `json:"skipped"`
	Bytes       int64    `json:"bytes"`
	Errors      []string `json:"errors,omitempty"`
}

// handoffClient fetches records over HTTP when the wire path is unavailable.
// Transfers can be large, so the timeout is generous; each request is still
// bounded by the pull request's context.
var handoffClient = &http.Client{Timeout: 2 * time.Minute}

// handoffGet fetches one URL, demanding a 200.
func handoffGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := handoffClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if len(body) > MaxBodyBytes {
		return nil, fmt.Errorf("record exceeds %d bytes", MaxBodyBytes)
	}
	return body, nil
}

func (s *Server) handleHandoffPull(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.edge.Error(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req HandoffPullRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.edge.Error(w, http.StatusBadRequest, "bad body: "+err.Error())
		return
	}
	if req.From == "" {
		s.edge.Error(w, http.StatusBadRequest, "missing source address")
		return
	}
	resp := s.pull(r.Context(), &req)
	WriteJSON(w, http.StatusOK, resp)
}

// pull fetches and installs the requested keys from the source shard:
// wire-first per record, HTTP fallback, graphs fetched once on first need.
func (s *Server) pull(ctx context.Context, req *HandoffPullRequest) *HandoffPullResponse {
	resp := &HandoffPullResponse{}
	var wc *wire.Client
	if req.Wire != "" {
		wc = wire.NewClient(req.Wire, 2)
		defer wc.Close()
	}
	haveGraph := make(map[uint64]bool)
	fetchGraph := func(fp uint64) error {
		if haveGraph[fp] {
			return nil
		}
		if _, ok := s.store.Graph(fp); ok {
			haveGraph[fp] = true
			return nil
		}
		var data []byte
		if wc != nil {
			if b, werr, err := wc.FetchGraph(ctx, fp); err == nil && werr == nil {
				data = b
			}
		}
		if data == nil {
			b, err := handoffGet(ctx, fmt.Sprintf("%s/handoff/graph?graph=%016x", req.From, fp))
			if err != nil {
				return fmt.Errorf("fetch graph %016x: %w", fp, err)
			}
			data = b
		}
		g, err := ftbfs.ReadGraph(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("decode graph %016x: %w", fp, err)
		}
		g.Freeze()
		// Keys name a graph by lineage, which stays put while the graph
		// mutates; the fetched text is the source's serving generation.
		if g.Lineage() != fp {
			return fmt.Errorf("graph fetched for %016x has lineage %016x", fp, g.Lineage())
		}
		if _, err := s.store.AddGraph(g); err != nil {
			// A PersistError means the graph is registered and serving from
			// memory — only durability failed. Keep pulling its records (they
			// degrade the same way) and surface the error instead of skipping
			// every key of the graph.
			var pe *store.PersistError
			if !errors.As(err, &pe) {
				return err
			}
			resp.Errors = append(resp.Errors, err.Error())
		}
		haveGraph[fp] = true
		return nil
	}
	for _, info := range req.Keys {
		// Check the deadline between keys, not just inside fetches: an aborted
		// pull must stop cleanly with every unprocessed key reported, so the
		// router can tell "not transferred" from "silently dropped" and keeps
		// the pending ledger honest.
		if err := ctx.Err(); err != nil {
			resp.Errors = append(resp.Errors, fmt.Sprintf("pull aborted: %v", err))
			break
		}
		k, err := info.StoreKey()
		if err != nil {
			resp.Errors = append(resp.Errors, err.Error())
			continue
		}
		if s.store.Has(k) {
			resp.Skipped++
			continue
		}
		if err := fetchGraph(k.Graph); err != nil {
			resp.Errors = append(resp.Errors, err.Error())
			continue
		}
		var data []byte
		if wc != nil {
			if wk, err := info.WireKey(); err == nil {
				if b, werr, err := wc.FetchRecord(ctx, &wk); err == nil && werr == nil {
					data = b
				}
			}
		}
		if data == nil {
			b, err := handoffGet(ctx, req.From+"/handoff/record?"+recordQuery(info))
			if err != nil {
				resp.Errors = append(resp.Errors, fmt.Sprintf("fetch %v: %v", k, err))
				continue
			}
			data = b
		}
		installed, err := s.store.ImportRecord(k, data)
		if installed {
			// The structure is resident and serving even if persistence
			// failed (ImportRecord reports that as installed + PersistError).
			// Counting it transferred keeps the router's pending ledger
			// consistent with what this store actually holds; the error still
			// surfaces so operators see the durability gap.
			resp.Transferred++
			resp.Bytes += int64(len(data))
			if err != nil {
				resp.Errors = append(resp.Errors, err.Error())
			}
			continue
		}
		if err != nil {
			resp.Errors = append(resp.Errors, err.Error())
			continue
		}
		resp.Skipped++
	}
	return resp
}

// HandoffRecord implements wire.HandoffBackend: the binary-protocol twin of
// GET /handoff/record. A record larger than the frame bound is answered 413
// by wire.Serve, so the puller falls back to HTTP (which has no such bound).
func (s *Server) HandoffRecord(ctx context.Context, k *wire.HandoffKey) ([]byte, *wire.Error) {
	s.m.wireRequests.Inc()
	if err := ctx.Err(); err != nil {
		return nil, &wire.Error{Code: http.StatusGatewayTimeout, Msg: err.Error()}
	}
	sk := store.Key{Graph: k.FP, Source: int(k.Source), Eps: math.Float64frombits(k.EpsBits), Alg: ftbfs.Algorithm(k.Alg)}
	if k.Vertex {
		sk = store.VertexKey(k.FP, int(k.Source))
	}
	data, err := s.store.ExportRecord(sk)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, store.ErrNotHeld) {
			code = http.StatusNotFound
		}
		return nil, &wire.Error{Code: code, Msg: err.Error()}
	}
	return data, nil
}

// HandoffGraph implements wire.HandoffBackend: the binary-protocol twin of
// GET /handoff/graph.
func (s *Server) HandoffGraph(ctx context.Context, fp uint64) ([]byte, *wire.Error) {
	s.m.wireRequests.Inc()
	if err := ctx.Err(); err != nil {
		return nil, &wire.Error{Code: http.StatusGatewayTimeout, Msg: err.Error()}
	}
	data, err := s.store.GraphText(fp)
	if err != nil {
		return nil, &wire.Error{Code: http.StatusNotFound, Msg: err.Error()}
	}
	return data, nil
}
