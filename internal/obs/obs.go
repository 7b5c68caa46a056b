// Package obs provides the small observability surface the
// reconciliation daemon exposes: named counters, gauges and fixed-bucket
// histograms collected in a registry, rendered either as JSON snapshots
// (the /status endpoint) or in Prometheus text exposition format (the
// /metrics endpoint). It depends only on the standard
// library and knows nothing about the NM.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Get returns the current value.
func (c *Counter) Get() uint64 { return c.v.Load() }

// DefaultLatencyBuckets suit management-plane latencies: 1ms to 10s.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram of float64 observations
// (seconds, for the daemon's latency metrics).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bucket bounds, ascending; +Inf implicit
	counts []uint64  // len(bounds)+1, last is the overflow bucket
	sum    float64
	count  uint64
}

// NewHistogram creates a histogram with the given ascending upper
// bounds (DefaultLatencyBuckets when none are given).
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot returns the histogram's current cumulative buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := HistogramSnapshot{Count: h.count, Sum: h.sum}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		snap.Buckets = append(snap.Buckets, Bucket{Le: b, Count: cum})
	}
	return snap
}

// Metrics is an ordered registry of counters, gauges and histograms.
// A counter is either kept here (Counter) or read through (CounterFunc)
// from the value its source already keeps, as every gauge is
// (GaugeFunc): a read-through value is computed only when a snapshot or
// a scrape asks for it, so it is never stale and there is no copy to
// keep in step.
type Metrics struct {
	mu      sync.Mutex
	order   []*entry          // guarded by mu
	entries map[string]*entry // guarded by mu
}

// entry is one registered metric; it does not change once registered.
type entry struct {
	name, help string
	kind       string        // the Prometheus TYPE: counter, gauge or histogram
	counter    *Counter      // a counter kept here
	hist       *Histogram    // a histogram
	read       func() uint64 // a read-through counter or gauge
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{entries: make(map[string]*entry)}
}

// register adds e, or returns the entry already registered under its
// name when both are kept here and of one kind (get-or-create). Any
// other second registration of a name panics: rendering it twice, or
// keeping only one of two values, would both misreport.
func (m *Metrics) register(e *entry) *entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[e.name]; ok {
		if old.kind == e.kind && old.read == nil && e.read == nil {
			return old
		}
		panic(fmt.Sprintf("obs: metric %q registered twice (as %s, then as %s)", e.name, old.kind, e.kind))
	}
	m.entries[e.name] = e
	m.order = append(m.order, e)
	return e
}

// Counter returns (creating on first use) the named counter.
func (m *Metrics) Counter(name, help string) *Counter {
	return m.register(&entry{name: name, help: help, kind: "counter", counter: &Counter{}}).counter
}

// CounterFunc registers a counter whose value is read(), called on
// every Snapshot and RenderPrometheus outside the registry's lock;
// read must be monotone and safe for concurrent use.
func (m *Metrics) CounterFunc(name, help string, read func() uint64) {
	m.register(&entry{name: name, help: help, kind: "counter", read: read})
}

// GaugeFunc registers a gauge (a value that moves both ways: queue
// depths, byte sizes) whose value is read(), called like CounterFunc's.
func (m *Metrics) GaugeFunc(name, help string, read func() uint64) {
	m.register(&entry{name: name, help: help, kind: "gauge", read: read})
}

// Histogram returns (creating on first use) the named histogram.
func (m *Metrics) Histogram(name, help string, bounds ...float64) *Histogram {
	return m.register(&entry{name: name, help: help, kind: "histogram", hist: NewHistogram(bounds...)}).hist
}

// entriesInOrder copies the registration order, so values are read
// without the registry's lock held.
func (m *Metrics) entriesInOrder() []*entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*entry(nil), m.order...)
}

// value reads a counter or gauge.
func (e *entry) value() uint64 {
	if e.counter != nil {
		return e.counter.Get()
	}
	return e.read()
}

// Snapshot returns every metric's current value keyed by name
// (counters and gauges as uint64, histograms as HistogramSnapshot), for
// the /status JSON document.
func (m *Metrics) Snapshot() map[string]any {
	order := m.entriesInOrder()
	out := make(map[string]any, len(order))
	for _, e := range order {
		if e.hist != nil {
			out[e.name] = e.hist.Snapshot()
		} else {
			out[e.name] = e.value()
		}
	}
	return out
}

// RenderPrometheus renders the registry in Prometheus text exposition
// format, in registration order.
func (m *Metrics) RenderPrometheus() string {
	var b strings.Builder
	for _, e := range m.entriesInOrder() {
		name := e.name
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, e.help, name, e.kind)
		if e.hist == nil {
			fmt.Fprintf(&b, "%s %d\n", name, e.value())
			continue
		}
		snap := e.hist.Snapshot()
		for _, bk := range snap.Buckets {
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, formatLe(bk.Le), bk.Count)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", name, snap.Sum, name, snap.Count)
	}
	return b.String()
}

func formatLe(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}
