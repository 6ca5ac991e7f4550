package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"ftbfs"
	"ftbfs/internal/core"
	"ftbfs/internal/store"
	"ftbfs/internal/wire"
)

// This file is the shard's handoff surface — how built structures move
// between shards when the cluster ring changes, without rebuilding:
//
//	GET  /handoff/keys    inventory of every exportable structure key
//	POST /handoff/pull    pull a key list from a named source shard
//
// The pull endpoint is receiver-driven: the cluster router tells the new
// owner what to pull and from whom, and the receiver fetches graph and
// records over the source's binary protocol (THandoff/TGraph, answered by
// *Server's HandoffRecord and HandoffGraph below; a record or graph text may
// reach wire.MaxRecord, the HTTP body bound) and installs them through the
// store's zero-parse import path. The record bytes have no HTTP route.

// HandoffKeyInfo is the JSON form of one structure key on the handoff
// surface. Eps round-trips exactly through JSON (shortest-repr encoding);
// Alg travels as the core algorithm code, Model as "vertex" or "" (edge).
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
	if k.Model == core.ModelVertex {
		info.Model = "vertex"
	} else {
		info.Eps = k.Eps
		info.Alg = int(k.Alg)
	}
	return info
}

// StoreKey converts back to the registry key through the validator the
// query paths use (edgeKey).
func (i HandoffKeyInfo) StoreKey() (store.Key, error) {
	fp, err := parseGraph(i.Graph)
	if err != nil {
		return store.Key{}, err
	}
	if i.Model == "vertex" {
		return store.VertexKey(fp, i.Source), nil
	}
	if i.Model != "" {
		return store.Key{}, fmt.Errorf("unknown model %q", i.Model)
	}
	return edgeKey(fp, i.Source, i.Eps, i.Alg)
}

// handoffStoreKey converts a binary-protocol handoff key back to the
// registry key, through the validator every other entry point uses.
func handoffStoreKey(k *wire.HandoffKey) (store.Key, error) {
	if k.Vertex {
		return store.VertexKey(k.FP, int(k.Source)), nil
	}
	return edgeKey(k.FP, int(k.Source), math.Float64frombits(k.EpsBits), int(k.Alg))
}

// handoffWireKey converts a registry key to its binary-protocol form, ε as
// its bit pattern.
func handoffWireKey(k store.Key) wire.HandoffKey {
	return wire.HandoffKey{
		FP:      k.Graph,
		EpsBits: math.Float64bits(k.Eps),
		Source:  int32(k.Source),
		Alg:     int32(k.Alg),
		Vertex:  k.Model == core.ModelVertex,
	}
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

// HandoffPullRequest is the body of POST /handoff/pull: the receiving shard
// pulls the listed keys from the source shard whose binary-protocol address
// Wire names.
type HandoffPullRequest struct {
	Wire string           `json:"wire"`
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
	if req.Wire == "" {
		s.edge.Error(w, http.StatusBadRequest, "missing source wire address")
		return
	}
	resp := s.pull(r.Context(), &req)
	WriteJSON(w, http.StatusOK, resp)
}

// fetched folds a wire fetch's two failure kinds into one error: the peer's
// in-protocol refusal (404 not held, 413 over wire.MaxRecord) or the
// transport fault.
func fetched(data []byte, werr *wire.Error, err error) ([]byte, error) {
	if werr != nil {
		return nil, werr
	}
	return data, err
}

// pull fetches and installs the requested keys from the source shard over
// its wire address, graphs fetched once on first need. A fetch that fails
// is reported in Errors under its key.
func (s *Server) pull(ctx context.Context, req *HandoffPullRequest) *HandoffPullResponse {
	resp := &HandoffPullResponse{}
	wc := wire.NewClient(req.Wire, 2)
	defer wc.Close()
	haveGraph := make(map[uint64]bool)
	fetchGraph := func(fp uint64) error {
		if haveGraph[fp] {
			return nil
		}
		if _, ok := s.store.Graph(fp); ok {
			haveGraph[fp] = true
			return nil
		}
		data, err := fetched(wc.FetchGraph(ctx, fp))
		if err != nil {
			return fmt.Errorf("fetch graph %016x: %w", fp, err)
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
			resp.Errors = append(resp.Errors, fmt.Sprintf("%v: %v", k, err))
			continue
		}
		wk := handoffWireKey(k)
		data, err := fetched(wc.FetchRecord(ctx, &wk))
		if err != nil {
			resp.Errors = append(resp.Errors, fmt.Sprintf("fetch %v: %v", k, err))
			continue
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

// HandoffRecord answers a THandoff frame (wire.Backend) with the record
// bytes of one held structure; a malformed key is refused with 400, and
// wire.Serve answers 413 for a record over wire.MaxRecord.
func (s *Server) HandoffRecord(ctx context.Context, k *wire.HandoffKey) ([]byte, *wire.Error) {
	s.m.wireRequests.Inc()
	if err := ctx.Err(); err != nil {
		return nil, &wire.Error{Code: http.StatusGatewayTimeout, Msg: err.Error()}
	}
	sk, err := handoffStoreKey(k)
	if err != nil {
		return nil, &wire.Error{Code: http.StatusBadRequest, Msg: err.Error()}
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

// HandoffGraph answers a TGraph frame (wire.Backend) with the canonical
// text of one registered graph.
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
