package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// This file is the store's side of shard-to-shard structure handoff: a shard
// inventories what it holds (Keys), exports any held structure as the exact
// record bytes another store can install (ExportRecord), and installs a
// shipped record without rebuilding (ImportRecord — the zero-parse
// LoadStructure/LoadVertexStructure path, the same one evictions load back
// through). The cluster router drives these through internal/server's
// /handoff surface when the ring changes.

// ErrNotHeld reports an export of a structure this store holds neither in
// memory nor on disk; the handoff surface maps it to 404 so a puller can
// tell "source never had it" from a source fault.
var ErrNotHeld = errors.New("structure not held")

// Keys inventories every structure key this store can export: resident
// entries plus persisted record files (which load back on demand). The
// result is sorted (by String) so inventories are stable across calls.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	set := make(map[Key]struct{}, len(s.entries))
	for k := range s.entries {
		set[k] = struct{}{}
	}
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		for _, pat := range []string{"st-*.fts", "stv-*.fts"} {
			paths, _ := filepath.Glob(filepath.Join(dir, pat))
			for _, p := range paths {
				if k, ok := keyFromStructFile(p); ok {
					set[k] = struct{}{}
				}
			}
		}
	}
	out := make([]Key, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Has reports whether the store holds k resident in memory or persisted on
// disk, without loading anything or touching LRU order — the receiver-side
// "skip what I already hold" check of a handoff pull.
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	k = s.normLocked(k)
	_, ok := s.entries[k]
	dir := s.dir
	s.mu.Unlock()
	if ok {
		return true
	}
	if dir == "" {
		return false
	}
	_, err := os.Stat(s.structPath(k))
	return err == nil
}

// ExportRecord returns the slab record of a held structure, ready for a
// peer store's ImportRecord: a resident structure is encoded with SaveSlab,
// an on-disk structure ships as its raw file bytes, which the importer
// decodes as any load does. Structures are immutable, so encoding outside
// the lock is safe. Returns ErrNotHeld (wrapped) when the store has nothing
// for k.
func (s *Store) ExportRecord(k Key) ([]byte, error) {
	exportStart := time.Now()
	s.mu.Lock()
	k = s.normLocked(k)
	e, ok := s.entries[k]
	dir := s.dir
	s.mu.Unlock()
	if ok {
		var buf bytes.Buffer
		if err := e.st.SaveSlab(&buf); err != nil {
			return nil, fmt.Errorf("store: export %v: %w", k, err)
		}
		s.m.handoffsOut.Inc()
		s.m.handoffDur.Observe(time.Since(exportStart))
		return buf.Bytes(), nil
	}
	if dir == "" {
		return nil, fmt.Errorf("store: %v: %w", k, ErrNotHeld)
	}
	data, err := s.readFile(s.structPath(k))
	if err != nil {
		return nil, fmt.Errorf("store: %v: %w", k, ErrNotHeld)
	}
	s.m.handoffsOut.Inc()
	s.m.handoffDur.Observe(time.Since(exportStart))
	return data, nil
}

// ImportRecord installs a record exported by another shard under key k: the
// record is fully validated against the (already registered) graph and
// cross-checked against the key it claims to be by the decoder load-through
// uses, inserted resident with its query plan pre-built, and persisted
// verbatim when the store has a directory. Installing a key that is already
// resident is a no-op (installed = false). The graph must be registered
// first — a handoff pull fetches it from the source before the records.
func (s *Store) ImportRecord(k Key, data []byte) (installed bool, err error) {
	importStart := time.Now()
	s.mu.Lock()
	k = s.normLocked(k)
	_, resident := s.entries[k]
	g, haveGraph := s.graphs[k.Graph]
	dir := s.dir
	s.mu.Unlock()
	if resident {
		return false, nil
	}
	if !haveGraph {
		return false, fmt.Errorf("store: handoff of %v: unknown graph %016x (pull the graph first)", k, k.Graph)
	}
	st, err := decode(g, k, data)
	if err != nil {
		return false, fmt.Errorf("store: handoff of %v: %w", k, err)
	}
	s.mu.Lock()
	if _, resident = s.entries[k]; resident {
		// Lost a race with a concurrent build/load; keep the resident one.
		s.mu.Unlock()
		return false, nil
	}
	s.insertLocked(k, st)
	s.m.handoffsIn.Inc()
	s.mu.Unlock()
	if dir != "" {
		// Persist the shipped bytes verbatim — the record already validated.
		if err := s.writeAtomic(s.structPath(k), func(w io.Writer) error {
			_, werr := w.Write(data)
			return werr
		}); err != nil {
			return true, &PersistError{Err: fmt.Errorf("%v: %w", k, err)}
		}
		s.m.saves.Inc()
	}
	s.m.handoffDur.Observe(time.Since(importStart))
	return true, nil
}

// GraphText returns the canonical text encoding of a registered graph — what
// a handoff receiver registers before importing the graph's structures. The
// text preserves edge order, so the receiver computes the same fingerprint.
func (s *Store) GraphText(fp uint64) ([]byte, error) {
	g, ok := s.Graph(fp)
	if !ok {
		return nil, fmt.Errorf("store: unknown graph %016x", fp)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		return nil, fmt.Errorf("store: encode graph %016x: %w", fp, err)
	}
	return buf.Bytes(), nil
}
