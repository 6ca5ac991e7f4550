// Package store is a thread-safe registry of built FT-BFS structures: the
// state behind the query service in internal/server. Structures are keyed by
// (graph fingerprint, source, ε, algorithm, failure model) — the Model
// dimension separates edge-failure structures from the vertex-failure
// structures served by /dist-avoiding-vertex. Both models share one serving
// core in the library, so the registry holds either as one Structure value:
// one entry type, one LRU, one single-flight resolve path (Resolve) and one
// persist directory (vertex records under their own "stv-" file prefix),
// with typed accessors on top. The registry holds at most a configured
// number of structures in memory (LRU eviction), builds missing entries on
// demand (edge misses of one request burst in one ftbfs.BuildBatch call,
// deduplicated per key via single-flight), and — when given a
// directory — persists every structure as a binary slab record (graphs
// keep the text format) so a restarted server warm-starts from disk and
// evicted structures load back through — a zero-parse read — instead of
// rebuilding. The slab is the only structure record the store reads: the
// warm scan quarantines any other structure file (a text record or a slab
// in a retired FTB3/FTB4 layout that an older store wrote, say), and its
// key rebuilds on first use. Structures leave the resolver with their
// serving QueryPlan pre-built, so the query hot path never pays the CSR
// extraction or tree preprocessing inline.
//
// Graphs are live: a registered graph is a (lineage, generation) pair, and
// the Graph dimension of every Key is the lineage — stable across mutations,
// so a graph's structures never change ring owners. Key.Gen selects a
// generation explicitly; the zero value means "the currently-serving
// generation" and is normalised on every lookup. Store.Mutate applies an
// edge-mutation batch: the old generation keeps serving, untouched, while
// every resident structure of the lineage is rebuilt against the new graph —
// through the ftbfs.DeltaRebuild fast path when the batch provably cannot
// have invalidated it, a full build otherwise — and persisted (structures
// first, graph last); one short critical section then installs graph,
// generation, and structures together. Queries never block on a rebuild and
// never observe a torn or mixed-generation view; a persist fault aborts with
// no swap, and superseded generations' record files are garbage-collected
// only after a successful swap. Every record carries its generation, and a
// record of another generation than the registered graph's is refused.
package store

import (
	"bytes"
	"container/list"
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftbfs"
	"ftbfs/internal/core"
	"ftbfs/internal/telemetry"
)

// Key identifies one built structure in the registry.
type Key struct {
	Graph  uint64 // lineage of the base graph (fingerprint of its generation-0 root)
	Source int
	Eps    float64
	Alg    ftbfs.Algorithm
	// Model is the failure model; the zero value is the edge model, so every
	// edge-key literal leaves it out. Vertex keys carry ε and Alg at their
	// zero values (see VertexKey), so each structure has exactly one key —
	// and exactly one position on the cluster ring.
	Model core.Model
	// Gen is the graph generation the structure serves. Callers normally
	// leave it 0, meaning "the currently-serving generation" — lookups
	// normalise it against the registry — so pre-generation keys (and
	// pre-generation peers) keep working unchanged. The cluster ring hashes
	// every dimension EXCEPT Gen: all generations of one structure key live
	// on the same shards, which is what lets a mutation swap in place
	// instead of re-sharding.
	Gen uint64
}

// String implements fmt.Stringer.
func (k Key) String() string {
	gen := ""
	if k.Gen > 0 {
		gen = fmt.Sprintf("@g%d", k.Gen)
	}
	if k.Model == core.ModelVertex {
		return fmt.Sprintf("%016x%s/s%d/vertex", k.Graph, gen, k.Source)
	}
	return fmt.Sprintf("%016x%s/s%d/eps%g/%s", k.Graph, gen, k.Source, k.Eps, k.Alg)
}

// VertexKey returns the canonical registry key of a vertex-failure
// structure: the model dimension set, ε and algorithm zeroed. Always build
// vertex keys through this helper — a vertex key with a stray ε would name
// (and route to) a structure nobody ever builds.
func VertexKey(fp uint64, source int) Key {
	return Key{Graph: fp, Source: source, Model: core.ModelVertex}
}

// Req names one structure for GetOrBuildMany (the Key minus the fingerprint,
// which is shared by the batch).
type Req struct {
	Source int
	Eps    float64
	Alg    ftbfs.Algorithm
}

// Stats is a point-in-time snapshot of the registry counters.
type Stats struct {
	Graphs     int `json:"graphs"`
	Structures int `json:"structures"`
	Capacity   int `json:"capacity"`

	Hits            uint64 `json:"hits"`                   // served from memory
	Misses          uint64 `json:"misses"`                 // not in memory (led to a load or build)
	Loads           uint64 `json:"loads"`                  // satisfied from the persist directory
	Builds          uint64 `json:"builds"`                 // satisfied by BuildBatch
	Evictions       uint64 `json:"evictions"`              // structures dropped by the LRU
	Saves           uint64 `json:"saves"`                  // structures written to the directory
	WarmLoaded      uint64 `json:"warm_start_loaded"`      // files accepted at warm start
	WarmSkipped     uint64 `json:"warm_start_skipped"`     // foreign/unrenamable files skipped at warm start
	WarmQuarantined uint64 `json:"warm_start_quarantined"` // corrupt/truncated files renamed to *.corrupt
	HandoffsIn      uint64 `json:"handoffs_in"`            // structures installed from another shard's records
	HandoffsOut     uint64 `json:"handoffs_out"`           // structure records exported to other shards

	// Live-graph convergence ledger: how many mutation batches this store
	// has applied and how each resident structure crossed a generation.
	GenerationsApplied uint64 `json:"generations_applied"` // mutation batches swapped in
	RebuildsDelta      uint64 `json:"rebuilds_delta"`      // structures carried over by delta rebuild
	RebuildsFull       uint64 `json:"rebuilds_full"`       // structures rebuilt from scratch on a mutation
	PersistGC          uint64 `json:"persist_gc"`          // superseded-generation record files deleted
}

// IOHooks intercepts the store's disk I/O. Production stores leave it unset;
// the chaos harness installs hooks that inject write/fsync errors and
// corrupted or truncated reads, so differential tests can prove the store
// degrades (PersistError, rebuild fallback, quarantine) instead of serving
// wrong answers. Every hook may be nil.
type IOHooks struct {
	// BeforeWrite runs before a record write begins; an error aborts the
	// write and surfaces as a PersistError.
	BeforeWrite func(path string) error
	// BeforeSync runs before the post-write fsync; an error surfaces like a
	// failed fsync (the record is not considered durable).
	BeforeSync func(path string) error
	// AfterRead filters every whole-file read: it may rewrite data (corrupt,
	// truncate) or replace err to simulate unreadable files.
	AfterRead func(path string, data []byte, err error) ([]byte, error)
}

// PersistPrefix starts every PersistError message. Like the server's
// UnknownGraphPrefix it is a wire contract: per-slot batch errors travel as
// strings, and the cluster router matches this prefix to recognise a node
// fault worth retrying on another replica.
const PersistPrefix = "store: persist: "

// PersistError marks a failure of the persist directory (unwritable file,
// full disk) as a server-side fault, distinguishing it from client-caused
// errors like an unknown graph or invalid build parameters.
type PersistError struct{ Err error }

func (e *PersistError) Error() string { return PersistPrefix + e.Err.Error() }
func (e *PersistError) Unwrap() error { return e.Err }

// Structure is a built structure of either failure model: *ftbfs.Structure
// or *ftbfs.VertexStructure. Both embed the library's one serving core, so
// the registry holds, persists, exports and serves them alike; the typed
// accessors (Get, GetVertex, GetOrBuild, GetOrBuildVertex, GetOrBuildMany)
// hand them out under their own types.
type Structure interface {
	Plan() *ftbfs.QueryPlan
	OraclePool() *ftbfs.OraclePool
	SaveSlab(io.Writer) error
}

type entry struct {
	key Key
	st  Structure     // of the key's failure model
	el  *list.Element // position in Store.lru; value is *entry
}

// flight is an in-progress load-or-build shared by concurrent requesters.
type flight struct {
	done chan struct{}
	st   Structure
	err  error
}

// Store is the registry. The zero value is not usable; call New.
type Store struct {
	mu       sync.Mutex
	capacity int                     // max in-memory structures; ≤ 0 means unlimited
	dir      string                  // persist directory; "" means memory-only
	graphs   map[uint64]*ftbfs.Graph // keyed by lineage; holds the serving generation
	gens     map[uint64]uint64       // lineage → currently-serving generation
	entries  map[Key]*entry
	lru      *list.List // front = most recently used
	inflight map[Key]*flight
	m        *storeMetrics           // registry-backed counters and timings
	hooks    atomic.Pointer[IOHooks] // fault-injection hooks; nil in production

	// mutateMu serialises Mutate calls. Rebuilding happens outside s.mu —
	// queries keep serving the old generation throughout — but two
	// overlapping mutations of different lineages still rebuild one at a
	// time, which keeps generation numbering and persist-dir GC simple.
	mutateMu sync.Mutex
}

// SetIOHooks installs (or, with nil, removes) disk fault-injection hooks.
// Safe to call concurrently with serving, though tests typically install
// hooks right after New.
func (s *Store) SetIOHooks(h *IOHooks) { s.hooks.Store(h) }

// readFile is the store's single whole-file read path, filtered through the
// AfterRead hook so injected corruption hits every disk read the same way.
func (s *Store) readFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if h := s.hooks.Load(); h != nil && h.AfterRead != nil {
		return h.AfterRead(path, data, err)
	}
	return data, err
}

// New returns a registry holding at most capacity structures in memory
// (≤ 0 means unlimited). A non-empty dir enables persistence: the directory
// is created if needed, every graph and structure ever registered is saved
// there, and existing contents are loaded back (graphs eagerly; structures
// lazily, through the LRU, so a huge directory does not blow the memory cap).
func New(capacity int, dir string) (*Store, error) {
	s := &Store{
		capacity: capacity,
		dir:      dir,
		graphs:   make(map[uint64]*ftbfs.Graph),
		gens:     make(map[uint64]uint64),
		entries:  make(map[Key]*entry),
		lru:      list.New(),
		inflight: make(map[Key]*flight),
	}
	s.m = newStoreMetrics(s)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := s.warmStart(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// warmStart loads every graph file in the persist directory and
// integrity-checks every structure record file. A corrupt or truncated file
// (a crash mid-write on a pre-atomic-rename store, say) cannot make the
// whole store unbootable: it is quarantined — renamed to <name>.corrupt,
// counted in Stats.WarmQuarantined and logged — so the damage is preserved
// for inspection but never rescanned or served. Files the store cannot even
// claim (foreign names) or cannot rename are merely skipped and counted in
// Stats.WarmSkipped. Structure contents still load lazily: the warm scan
// verifies each slab's integrity (length, checksum) without retaining
// anything, keys become loadable through GetOrBuild, and the structures
// themselves stay on disk until requested.
func (s *Store) warmStart() error {
	paths, err := filepath.Glob(filepath.Join(s.dir, "graph-*.ftg"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, p := range paths {
		data, err := s.readFile(p)
		if err != nil {
			s.quarantine(p, err)
			continue
		}
		g, err := ftbfs.ReadGraph(bytes.NewReader(data))
		if err != nil {
			s.quarantine(p, err)
			continue
		}
		g.Freeze()
		// The text record carries the graph's identity header, so a mutated
		// graph warm-starts at the generation it was persisted at.
		s.graphs[g.Lineage()] = g
		s.gens[g.Lineage()] = g.Generation()
		s.m.warmLoaded.Inc()
	}
	for _, pat := range []string{"st-*.fts", "stv-*.fts"} {
		paths, err := filepath.Glob(filepath.Join(s.dir, pat))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, p := range paths {
			k, ok := keyFromStructFile(p)
			if !ok {
				// Not a file this store wrote; leave it alone.
				s.warmSkip(p, fmt.Errorf("unrecognised structure file name"))
				continue
			}
			if gen, known := s.gens[k.Graph]; known && k.Gen != gen {
				// A superseded (or failed-future) generation of a graph we
				// serve: garbage a crash kept the swap-time GC from
				// collecting. It is not corrupt — just never loadable again —
				// so it is GC'd, not quarantined.
				if err := os.Remove(p); err != nil {
					s.warmSkip(p, fmt.Errorf("stale generation %d (serving %d): %v", k.Gen, gen, err))
					continue
				}
				s.m.persistGC.Inc()
				log.Printf("store: warm start: gc %s: generation %d superseded by %d", filepath.Base(p), k.Gen, gen)
				continue
			}
			if err := s.checkStructFile(p); err != nil {
				s.quarantine(p, err)
				continue
			}
			s.m.warmLoaded.Inc()
		}
	}
	return nil
}

// warmSkip counts and logs one file the warm scan could not accept.
func (s *Store) warmSkip(path string, err error) {
	s.m.warmSkipped.Inc()
	log.Printf("store: warm start: skipping %s: %v", filepath.Base(path), err)
}

// quarantine moves a corrupt or truncated record file out of the load path
// by renaming it to <name>.corrupt: the globs never match it again, a later
// build of the same key writes a fresh file, and the damaged bytes stay
// available for forensics. A file that cannot even be renamed falls back to
// a plain skip.
func (s *Store) quarantine(path string, cause error) {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		s.warmSkip(path, cause)
		return
	}
	s.m.warmQuarantined.Inc()
	log.Printf("store: warm start: quarantined %s -> %s.corrupt: %v", filepath.Base(path), filepath.Base(path), cause)
}

// checkStructFile verifies a structure record file is an intact slab
// without decoding it against a graph: every header check, length and
// checksum. Any other file, such as a text record or a retired FTB3/FTB4
// slab that an older store wrote, fails here and is quarantined. Deep
// (graph-dependent) validation still happens at load-through; a file
// failing there falls back to a rebuild.
func (s *Store) checkStructFile(path string) error {
	data, err := s.readFile(path)
	if err != nil {
		return err
	}
	return core.CheckSlab(data)
}

// graphPath returns the persist path of a graph file.
func (s *Store) graphPath(fp uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("graph-%016x.ftg", fp))
}

// structPath returns the persist path of a structure file. ε is encoded as
// its IEEE-754 bit pattern so every distinct key maps to a distinct file.
// Vertex structures live under their own "stv-" prefix — the failure model
// is a filename dimension exactly like it is a Key dimension, so an edge
// and a vertex structure of the same (graph, source) never collide. A live
// generation adds a "-g<gen>" suffix; generation 0 keeps the historical
// name, so pre-generation directories stay valid without renames.
func (s *Store) structPath(k Key) string {
	gen := ""
	if k.Gen > 0 {
		gen = fmt.Sprintf("-g%d", k.Gen)
	}
	if k.Model == core.ModelVertex {
		return filepath.Join(s.dir, fmt.Sprintf("stv-%016x-s%d%s.fts", k.Graph, k.Source, gen))
	}
	return filepath.Join(s.dir, fmt.Sprintf("st-%016x-s%d-e%016x-a%d%s.fts",
		k.Graph, k.Source, math.Float64bits(k.Eps), int(k.Alg), gen))
}

// keyFromStructFile parses a structure file name produced by the store back
// into its Key; ok is false for foreign names. The filename format is an
// on-disk contract: structPath must stay its inverse.
func keyFromStructFile(name string) (Key, bool) {
	name = strings.TrimSuffix(filepath.Base(name), ".fts")
	parts := strings.Split(name, "-")
	// An optional trailing "g<gen>" part names a live generation; its absence
	// means generation 0 (the historical file name).
	var gen uint64
	if last := parts[len(parts)-1]; len(parts) > 1 && strings.HasPrefix(last, "g") {
		gv, err := strconv.ParseUint(last[1:], 10, 64)
		if err != nil || gv == 0 {
			return Key{}, false
		}
		gen = gv
		parts = parts[:len(parts)-1]
	}
	if len(parts) == 3 && parts[0] == "stv" && strings.HasPrefix(parts[2], "s") {
		fp, err1 := strconv.ParseUint(parts[1], 16, 64)
		src, err2 := strconv.Atoi(parts[2][1:])
		if err1 != nil || err2 != nil {
			return Key{}, false
		}
		k := VertexKey(fp, src)
		k.Gen = gen
		return k, true
	}
	if len(parts) != 5 || parts[0] != "st" ||
		!strings.HasPrefix(parts[2], "s") || !strings.HasPrefix(parts[3], "e") || !strings.HasPrefix(parts[4], "a") {
		return Key{}, false
	}
	fp, err1 := strconv.ParseUint(parts[1], 16, 64)
	src, err2 := strconv.Atoi(parts[2][1:])
	bits, err3 := strconv.ParseUint(parts[3][1:], 16, 64)
	alg, err4 := strconv.Atoi(parts[4][1:])
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return Key{}, false
	}
	return Key{Graph: fp, Source: src, Eps: math.Float64frombits(bits), Alg: ftbfs.Algorithm(alg), Gen: gen}, true
}

// AddGraph registers (and freezes) a graph, persisting it when the store has
// a directory, and returns its lineage — which, for the generation-0 graphs
// this path registers, is exactly the fingerprint it always returned.
// Re-adding a known lineage is a no-op returning the existing registration
// (whatever generation it has mutated to since).
func (s *Store) AddGraph(g *ftbfs.Graph) (uint64, error) {
	g.Freeze()
	fp := g.Lineage()
	s.mu.Lock()
	if _, ok := s.graphs[fp]; ok {
		s.mu.Unlock()
		return fp, nil
	}
	s.graphs[fp] = g
	s.gens[fp] = g.Generation()
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		if err := s.writeAtomic(s.graphPath(fp), g.Write); err != nil {
			return fp, &PersistError{Err: fmt.Errorf("graph %016x: %w", fp, err)}
		}
	}
	return fp, nil
}

// Graph returns the currently-serving generation of the registered graph
// with the given lineage.
func (s *Store) Graph(fp uint64) (*ftbfs.Graph, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.graphs[fp]
	return g, ok
}

// normLocked resolves a caller key against the serving state: a zero Gen
// means "whatever generation is serving now". Keys naming an explicit
// generation pass through untouched. s.mu must be held.
func (s *Store) normLocked(k Key) Key {
	if k.Gen == 0 {
		k.Gen = s.gens[k.Graph]
	}
	return k
}

// Graphs returns the fingerprints of every registered graph.
func (s *Store) Graphs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.graphs))
	for fp := range s.graphs {
		out = append(out, fp)
	}
	return out
}

// Get returns the edge structure for k if it is resident in memory,
// touching its LRU position. It never loads or builds; use GetOrBuild for
// read-through. Vertex keys miss here by definition — use GetVertex.
func (s *Store) Get(k Key) (*ftbfs.Structure, bool) { return get[*ftbfs.Structure](s, k) }

// GetVertex returns the vertex structure of (fp, source) if it is resident
// in memory, touching its LRU position. It never loads or builds; use
// GetOrBuildVertex for read-through.
func (s *Store) GetVertex(fp uint64, source int) (*ftbfs.VertexStructure, bool) {
	return get[*ftbfs.VertexStructure](s, VertexKey(fp, source))
}

// get is Get and GetVertex: the resident structure of k if it has type T,
// counted as a hit or a miss.
func get[T Structure](s *Store, k Key) (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st T
	e, ok := s.entries[s.normLocked(k)]
	if ok {
		st, ok = e.st.(T)
	}
	if !ok {
		s.m.misses.Inc()
		return st, false
	}
	s.m.hits.Inc()
	s.lru.MoveToFront(e.el)
	return st, true
}

// Resident returns the structure for k, of either model, if it is resident
// in memory, counting a hit and touching its LRU position. Unlike Get it
// counts nothing when the structure is absent: the read-through that
// follows counts that miss.
func (s *Store) Resident(k Key) (Structure, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[s.normLocked(k)]
	if !ok {
		return nil, false
	}
	s.m.hits.Inc()
	s.lru.MoveToFront(e.el)
	return e.st, true
}

// Len returns the number of structures resident in memory.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns a snapshot of the registry counters. The numbers come from
// the same telemetry series /metrics exposes; this merely reshapes them into
// the legacy /stats JSON contract.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	graphs, structures, capacity := len(s.graphs), len(s.entries), s.capacity
	s.mu.Unlock()
	m := s.m
	return Stats{
		Graphs:          graphs,
		Structures:      structures,
		Capacity:        capacity,
		Hits:            m.hits.Value(),
		Misses:          m.misses.Value(),
		Loads:           m.loads.Value(),
		Builds:          m.builds.Value(),
		Evictions:       m.evictions.Value(),
		Saves:           m.saves.Value(),
		WarmLoaded:      m.warmLoaded.Value(),
		WarmSkipped:     m.warmSkipped.Value(),
		WarmQuarantined: m.warmQuarantined.Value(),
		HandoffsIn:      m.handoffsIn.Value(),
		HandoffsOut:     m.handoffsOut.Value(),

		GenerationsApplied: m.generationsApplied.Value(),
		RebuildsDelta:      m.rebuildsDelta.Value(),
		RebuildsFull:       m.rebuildsFull.Value(),
		PersistGC:          m.persistGC.Value(),
	}
}

// Telemetry returns the store's metric registry. Serving layers merge its
// snapshot into their own at exposition time, so store series appear on the
// shard's /metrics without the store knowing about HTTP.
func (s *Store) Telemetry() *telemetry.Registry { return s.m.reg }

// GetOrBuild returns the edge structure for k, loading it from the persist
// directory or building it through BuildBatch on a miss (see Resolve).
func (s *Store) GetOrBuild(ctx context.Context, k Key) (*ftbfs.Structure, error) {
	if k.Model != core.ModelEdge {
		return nil, fmt.Errorf("store: %v is not an edge-structure key (use GetOrBuildVertex)", k)
	}
	st, err := s.Resolve(ctx, k)
	if err != nil {
		return nil, err
	}
	return st.(*ftbfs.Structure), nil
}

// GetOrBuildVertex returns the vertex-failure structure of (fp, source),
// loading it from the persist directory or building it through
// ftbfs.BuildVertex on a miss (see Resolve). It is persisted next to the
// edge files under its own "stv-" prefix.
func (s *Store) GetOrBuildVertex(ctx context.Context, fp uint64, source int) (*ftbfs.VertexStructure, error) {
	st, err := s.Resolve(ctx, VertexKey(fp, source))
	if err != nil {
		return nil, err
	}
	return st.(*ftbfs.VertexStructure), nil
}

// Resolve returns the structure for k, of either failure model, loading it
// from the persist directory or building it on a miss. Concurrent calls for
// the same key share one load/build. A resident structure is returned on an
// allocation-free fast path — the steady state of a serving hot loop. ctx
// bounds the miss path only: an already-expired deadline budget fails fast
// instead of starting a load or build the caller will never see.
func (s *Store) Resolve(ctx context.Context, k Key) (Structure, error) {
	if st, ok := s.Resident(k); ok {
		return st, nil
	}
	sts, err := s.getOrBuild(ctx, k.Graph, []Key{k})
	if err != nil {
		return nil, err
	}
	return sts[0], nil
}

// GetOrBuildMany resolves a batch of edge-structure requests against one
// registered graph; see getOrBuild. Results are returned in request order.
func (s *Store) GetOrBuildMany(ctx context.Context, fp uint64, reqs []Req) ([]*ftbfs.Structure, error) {
	keys := make([]Key, len(reqs))
	for i, r := range reqs {
		keys[i] = Key{Graph: fp, Source: r.Source, Eps: r.Eps, Alg: r.Alg}
	}
	sts, err := s.getOrBuild(ctx, fp, keys)
	if err != nil || len(sts) == 0 {
		return nil, err
	}
	out := make([]*ftbfs.Structure, len(sts))
	for i, st := range sts {
		out[i] = st.(*ftbfs.Structure)
	}
	return out, nil
}

// getOrBuild is the one single-flight resolve path of both key models: it
// resolves keys (of either model) against one registered graph, at its
// serving generation. Cached structures are served from memory; the remaining
// misses are first tried against the persist directory and whatever is still
// missing is built — every edge key in a single ftbfs.BuildBatch call, so
// keys sharing a source share the BFS tree, the replacement-path
// preprocessing and the reinforcement sweep. Concurrent calls for the same
// key share one load/build. Results are returned in key order.
//
// ctx carries the caller's deadline budget. It is checked before any work
// starts and again while waiting on another call's in-flight build; a build
// this call owns always runs to completion (other waiters may depend on it,
// and the result is cached for the retry), so expiry mid-build costs at most
// one build beyond the budget — never a wrong or partial answer. A persist
// fault fails the call with a PersistError while the built structures stay
// resident and serve every later request.
func (s *Store) getOrBuild(ctx context.Context, fp uint64, keys []Key) ([]Structure, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, k := range keys {
		// NaN never compares equal, so a NaN-eps Key would be inserted into
		// the inflight map and never found again (nil-deref on the
		// re-lookup, plus a permanent map leak). Inf is equally meaningless.
		if math.IsNaN(k.Eps) || math.IsInf(k.Eps, 0) {
			return nil, fmt.Errorf("store: eps must be finite, got %v", k.Eps)
		}
	}
	s.mu.Lock()
	g, ok := s.graphs[fp]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: unknown graph %016x (register it with AddGraph or /build first)", fp)
	}
	gen := s.gens[fp] // resolve the batch against one serving generation
	out := make([]Structure, len(keys))
	var mine []Key // keys this call is responsible for resolving
	mineIdx := make(map[Key][]int)
	var waits []*flight // flights owned by other calls
	waitIdx := make(map[*flight][]int)
	for i, k := range keys {
		k.Gen = gen
		if e, ok := s.entries[k]; ok {
			s.m.hits.Inc()
			s.lru.MoveToFront(e.el)
			out[i] = e.st
			continue
		}
		s.m.misses.Inc()
		if fl, ok := s.inflight[k]; ok {
			// In-progress elsewhere — or a duplicate key earlier in this
			// very batch, whose flight we just registered; either way the
			// flight is closed before the wait loop runs, so no deadlock.
			if _, seen := waitIdx[fl]; !seen {
				waits = append(waits, fl)
			}
			waitIdx[fl] = append(waitIdx[fl], i)
			continue
		}
		fl := &flight{done: make(chan struct{})}
		s.inflight[k] = fl
		mine = append(mine, k)
		mineIdx[k] = []int{i}
	}
	s.mu.Unlock()

	var firstErr error
	if len(mine) > 0 {
		resolveStart := time.Now()
		resolved, err := s.resolve(g, mine)
		if tr := telemetry.TraceFrom(ctx); tr != nil {
			tr.Add("store.resolve", resolveStart)
		}
		if err != nil {
			firstErr = err
		}
		s.mu.Lock()
		for _, k := range mine {
			fl := s.inflight[k]
			delete(s.inflight, k)
			// A key that did resolve succeeds even when another key of the
			// batch failed: its waiters must not inherit an unrelated error,
			// and the loaded/built structure must not be thrown away.
			if st := resolved[k]; st != nil {
				fl.st = st
				s.insertLocked(k, st)
				for _, i := range mineIdx[k] {
					out[i] = st
				}
			} else if err != nil {
				fl.err = err
			} else {
				fl.err = fmt.Errorf("store: %v: not resolved", k)
			}
			close(fl.done)
		}
		s.mu.Unlock()
	}
	for _, fl := range waits {
		select {
		case <-fl.done:
		case <-ctx.Done():
			// The flight's owner still finishes and caches the result; this
			// caller's budget is spent, so it stops waiting.
			if firstErr == nil {
				firstErr = ctx.Err()
			}
			continue
		}
		if fl.err != nil {
			if firstErr == nil {
				firstErr = fl.err
			}
			continue
		}
		for _, i := range waitIdx[fl] {
			out[i] = fl.st
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// resolve loads or builds the structures for keys (all on graph g), returning
// them keyed. Load failures fall through to a rebuild; the rebuilt structure
// overwrites the unreadable file, and a disk fault is reported as a
// PersistError alongside the usable structures. Every structure entering the
// registry is handed out with its query plan already built, so the first
// failure query a freshly built or loaded structure serves never pays the
// plan extraction inline.
func (s *Store) resolve(g *ftbfs.Graph, keys []Key) (map[Key]Structure, error) {
	resolved := make(map[Key]Structure, len(keys))
	var toBuild []Key
	for _, k := range keys {
		if st := s.loadFromDir(k, g); st != nil {
			resolved[k] = st
			continue
		}
		toBuild = append(toBuild, k)
	}
	if len(toBuild) == 0 {
		return resolved, nil
	}
	buildStart := time.Now()
	sts, err := build(g, toBuild)
	if err != nil {
		return resolved, err
	}
	s.m.builds.Add(uint64(len(toBuild)))
	s.m.buildDur.Observe(time.Since(buildStart))
	s.mu.Lock()
	dir := s.dir
	s.mu.Unlock()
	var persistErr error
	for i, k := range toBuild {
		resolved[k] = sts[i]
		if dir != "" {
			if err := s.writeAtomic(s.structPath(k), sts[i].SaveSlab); err != nil {
				// The builds succeeded — keep serving every one of them from
				// memory, keep persisting the rest, and surface the first
				// disk fault to the caller.
				if persistErr == nil {
					persistErr = &PersistError{Err: fmt.Errorf("%v: %w", k, err)}
				}
				continue
			}
			s.m.saves.Inc()
		}
	}
	return resolved, persistErr
}

// build constructs the structures keys name against g, with their query
// plans: every edge key in one ftbfs.BuildBatch call, every vertex key
// through ftbfs.BuildVertex. Results are in key order.
func build(g *ftbfs.Graph, keys []Key) ([]Structure, error) {
	out := make([]Structure, len(keys))
	var breqs []ftbfs.BatchRequest
	var edgeIdx []int
	for i, k := range keys {
		if k.Model == core.ModelVertex {
			vst, err := ftbfs.BuildVertex(g, k.Source)
			if err != nil {
				return nil, fmt.Errorf("store: vertex build: %w", err)
			}
			out[i] = vst
			continue
		}
		breqs = append(breqs, ftbfs.BatchRequest{
			Source:  k.Source,
			Eps:     k.Eps,
			Options: []ftbfs.BuildOption{ftbfs.WithAlgorithm(k.Alg)},
		})
		edgeIdx = append(edgeIdx, i)
	}
	if len(breqs) > 0 {
		sts, err := ftbfs.BuildBatch(g, breqs)
		if err != nil {
			return nil, fmt.Errorf("store: build: %w", err)
		}
		for j, st := range sts {
			out[edgeIdx[j]] = st
		}
	}
	for _, st := range out {
		st.Plan()
	}
	return out, nil
}

// loadFromDir loads the persisted structure for k, or nil when the store is
// memory-only, the file is absent, or it fails to decode (the caller then
// rebuilds and overwrites it).
func (s *Store) loadFromDir(k Key, g *ftbfs.Graph) Structure {
	s.mu.Lock()
	dir := s.dir
	s.mu.Unlock()
	if dir == "" {
		return nil
	}
	loadStart := time.Now()
	data, err := s.readFile(s.structPath(k))
	if err != nil {
		return nil
	}
	st, err := decode(g, k, data)
	if err != nil {
		return nil
	}
	s.m.loads.Inc()
	s.m.loadDur.Observe(time.Since(loadStart))
	return st
}

// decode loads a slab record against g through the zero-parse path, checks
// that it is the structure k names, and pre-builds its query plan.
// Load-through and ImportRecord share it.
func decode(g *ftbfs.Graph, k Key, data []byte) (Structure, error) {
	var st Structure
	if k.Model == core.ModelVertex {
		vst, err := ftbfs.LoadVertexStructure(g, bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if vst.Source() != k.Source {
			return nil, fmt.Errorf("record has source %d", vst.Source())
		}
		st = vst
	} else {
		est, err := ftbfs.LoadStructure(g, bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if est.Source() != k.Source || est.Epsilon() != k.Eps {
			return nil, fmt.Errorf("record is (source=%d, eps=%g)", est.Source(), est.Epsilon())
		}
		st = est
	}
	st.Plan()
	return st, nil
}

// insertLocked adds a resolved structure and evicts down to capacity. s.mu
// must be held.
func (s *Store) insertLocked(k Key, st Structure) {
	if gen, ok := s.gens[k.Graph]; ok && k.Gen != gen {
		// A load/build that resolved against a generation a concurrent
		// Mutate swapped out while it ran: nothing will ever look this key
		// up again, so inserting it would only waste an LRU slot.
		return
	}
	if e, ok := s.entries[k]; ok { // lost a race; keep the resident one
		s.lru.MoveToFront(e.el)
		return
	}
	e := &entry{key: k, st: st}
	e.el = s.lru.PushFront(e)
	s.entries[k] = e
	for s.capacity > 0 && len(s.entries) > s.capacity {
		back := s.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, victim.key)
		s.m.evictions.Inc()
	}
}

// writeAtomic writes via a temp file + fsync + rename + directory fsync, so
// readers never observe a partial structure or graph file — and a crash right
// after the call cannot leave a renamed-but-unsynced (empty or truncated)
// record behind. The warm scan would survive such a file anyway, but a synced
// rename means a completed save is durable, not merely atomic. Injected
// faults (IOHooks) abort before the write or before the fsync, so a faulted
// save never renames a partial record into place.
func (s *Store) writeAtomic(path string, write func(io.Writer) error) error {
	saveStart := time.Now()
	h := s.hooks.Load()
	if h != nil && h.BeforeWrite != nil {
		if err := h.BeforeWrite(path); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if h != nil && h.BeforeSync != nil {
		if err := h.BeforeSync(path); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return err
	}
	s.m.saveDur.Observe(time.Since(saveStart))
	return nil
}
