package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; all methods are safe for concurrent use and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64. The zero value is ready to use; all methods
// are safe for concurrent use and allocation-free.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Outcome classifies a finished request for outcome-labeled histograms.
type Outcome uint8

const (
	OutcomeOK Outcome = iota
	OutcomeError
	OutcomeShed
	OutcomeTimeout
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "error", "shed", "timeout"}

// String returns the label value used in metric names.
func (o Outcome) String() string { return outcomeNames[o] }

// OutcomeOf maps an HTTP status code to an outcome: 503 is a shed, 504 a
// timeout, any other 4xx/5xx an error, everything else ok.
func OutcomeOf(status int) Outcome {
	switch {
	case status == 503:
		return OutcomeShed
	case status == 504:
		return OutcomeTimeout
	case status >= 400:
		return OutcomeError
	default:
		return OutcomeOK
	}
}

// OutcomeHist is a latency histogram split by request outcome. Each
// outcome is its own registered series (label outcome="ok" etc.), resolved
// once at registration so Observe is array-indexed and allocation-free.
type OutcomeHist struct {
	h [numOutcomes]*Histogram
}

// Observe records one finished request.
func (o *OutcomeHist) Observe(d time.Duration, out Outcome) {
	if o == nil {
		return
	}
	o.h[out].Observe(d)
}

// Registry owns a set of named metrics. Registration takes a lock;
// recording through the returned pointers never does. Registering the same
// (name, labels) twice returns the same metric, so layers can share
// series.
//
// The labels argument is a pre-rendered Prometheus label body such as
// `route="/dist",outcome="ok"` — empty for none. Callers render it once at
// construction time; the hot path never formats labels.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	counterFns map[string]func() uint64
	gaugeFns   map[string]func() int64
	help       map[string]string // family → help text
	types      map[string]string // family → counter|gauge|histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		counterFns: make(map[string]func() uint64),
		gaugeFns:   make(map[string]func() int64),
		help:       make(map[string]string),
		types:      make(map[string]string),
	}
}

// Key renders the series key for a family name and label body.
func Key(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func (r *Registry) family(name, help, typ string) {
	if _, ok := r.types[name]; !ok {
		r.types[name] = typ
		r.help[name] = help
	}
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name, labels, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, "counter")
	k := Key(name, labels)
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, "gauge")
	k := Key(name, labels)
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for (name, labels), creating it on first
// use. Name the family with a _seconds suffix: buckets are recorded in
// nanoseconds internally and exposed in seconds.
func (r *Registry) Histogram(name, labels, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, "histogram")
	k := Key(name, labels)
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// OutcomeHist registers four outcome-labeled histogram series under one
// family and returns them bundled for array-indexed recording. A non-empty
// labels body is prepended to the outcome label.
func (r *Registry) OutcomeHist(name, labels, help string) *OutcomeHist {
	o := &OutcomeHist{}
	for i := Outcome(0); i < numOutcomes; i++ {
		lb := `outcome="` + outcomeNames[i] + `"`
		if labels != "" {
			lb = labels + "," + lb
		}
		o.h[i] = r.Histogram(name, lb, help)
	}
	return o
}

// CounterFunc registers a counter whose value is read from fn at snapshot
// time — for adopting counters that live elsewhere (process-wide plan
// stats, breaker internals) without double bookkeeping.
func (r *Registry) CounterFunc(name, labels, help string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, "counter")
	r.counterFns[Key(name, labels)] = fn
}

// GaugeFunc registers a gauge whose value is read from fn at snapshot time.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, "gauge")
	r.gaugeFns[Key(name, labels)] = fn
}

// Snapshot is a point-in-time copy of a registry's series, keyed by the
// rendered series name (family plus label body). It marshals to JSON for
// shard→router scraping and merges associatively with Merge.
type Snapshot struct {
	Counters map[string]uint64       `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
	Help     map[string]string       `json:"help,omitempty"`
	Types    map[string]string       `json:"types,omitempty"`
}

// Snapshot captures every registered series, evaluating func-backed ones.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters: make(map[string]uint64, len(r.counters)+len(r.counterFns)),
		Gauges:   make(map[string]int64, len(r.gauges)+len(r.gaugeFns)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
		Help:     make(map[string]string, len(r.help)),
		Types:    make(map[string]string, len(r.types)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, fn := range r.counterFns {
		s.Counters[k] = fn()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, fn := range r.gaugeFns {
		s.Gauges[k] = fn()
	}
	for k, h := range r.hists {
		s.Hists[k] = h.Snapshot()
	}
	for k, v := range r.help {
		s.Help[k] = v
	}
	for k, v := range r.types {
		s.Types[k] = v
	}
	return s
}

// Merge combines snapshots into a new one: counters and histogram buckets
// add, gauges sum (a fleet gauge is the fleet total). Merging is
// associative and commutative, so fleet aggregation order never matters.
func Merge(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{
		Counters: make(map[string]uint64),
		Gauges:   make(map[string]int64),
		Hists:    make(map[string]HistSnapshot),
		Help:     make(map[string]string),
		Types:    make(map[string]string),
	}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] += v
		}
		for k, v := range s.Hists {
			h := out.Hists[k]
			h.Merge(v)
			out.Hists[k] = h
		}
		for k, v := range s.Help {
			if _, ok := out.Help[k]; !ok {
				out.Help[k] = v
			}
		}
		for k, v := range s.Types {
			if _, ok := out.Types[k]; !ok {
				out.Types[k] = v
			}
		}
	}
	return out
}

// sortedKeys returns the keys of m sorted, for stable exposition output.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
