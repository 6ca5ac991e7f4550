// Package telemetry is the dependency-free observability core of the
// serving plane: counters, gauges, fixed-bucket latency histograms, and
// request traces, all designed so the hot path pays roughly one atomic add
// per event and zero allocations.
//
// # Metrics
//
// A Registry owns named metrics. Names follow Prometheus conventions
// (ftbfs_http_requests_total); label sets are rendered once at registration
// time (`route="/dist",outcome="ok"`), so recording never formats strings.
// Handlers resolve their metric pointers at construction and hold them
// directly — the per-event cost is an atomic.Add, never a map lookup.
//
// Histogram buckets are log-spaced nanoseconds: values below 16 ns get
// exact buckets, everything above lands in one of four sub-buckets per
// power of two (≤ 25 % relative error), 256 buckets total covering the
// full int64 range. Quantiles (p50/p90/p99/p999) are read from bucket
// counts, so they are exactly mergeable: merging two snapshots and taking
// a quantile equals taking the quantile of the concatenated samples, which
// is what makes the router's /metrics/fleet aggregation sound.
//
// Snapshot captures a registry's state as plain maps, marshals to JSON for
// shard→router scraping, merges associatively, and renders to Prometheus
// text exposition format with WriteProm.
//
// # Tracing
//
// A Trace is a request-scoped span log identified by a 64-bit ID. It
// travels between processes as the X-Ftbfs-Trace header on HTTP and as the
// trace field of every wire frame (protocol v3); a zero ID means untraced
// and costs the hot path a single branch. Each layer appends completed
// spans (router attempt, server route, store resolve); a shard returns its
// spans in the response — the span section of a wire response frame, or
// the X-Ftbfs-Spans header on HTTP — and the caller folds them in, so one
// /debug/traces entry shows the whole request tree. Completed traces land
// in a bounded TraceRing of recent slow requests.
package telemetry
