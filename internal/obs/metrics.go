package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"searchmem/internal/det"
	"searchmem/internal/stats"
)

// Unified metrics registry: counters, gauges, and log-scaled histograms with
// labeled series. Instruments are get-or-create by (name, labels) so
// concurrent producers share one series; snapshots are sorted by series key
// and defensively copied, so exporting is deterministic and can never alias
// registry internals (TestSnapshotSortedAndDetached).

// Label is one dimension of a metric series ("cluster"="degraded/faulty").
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// seriesKey canonicalizes (name, sorted labels) into a map key.
func seriesKey(name string, labels []Label) string {
	k := name
	for _, l := range labels {
		k += "|" + l.Key + "=" + l.Value
	}
	return k
}

// sortLabels returns a key-sorted copy of labels.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Registry holds the metric series for one system under observation.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter series for (name, labels), creating it at zero
// on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	sorted := sortLabels(labels)
	key := seriesKey(name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{name: name, labels: sorted}
		r.counters[key] = c
	}
	return c
}

// Gauge returns the gauge series for (name, labels), creating it at zero on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	sorted := sortLabels(labels)
	key := seriesKey(name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{name: name, labels: sorted}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns the histogram series for (name, labels), creating it
// empty on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	sorted := sortLabels(labels)
	key := seriesKey(name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = &Histogram{name: name, labels: sorted, hist: stats.NewHistogram(8)}
		r.hists[key] = h
	}
	return h
}

// Counter is a monotonically increasing integer series.
type Counter struct {
	name   string
	labels []Label
	value  atomic.Int64
}

// Add increments the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("obs: counter %q decremented by %d", c.name, n))
	}
	c.value.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.value.Load() }

// Gauge is a point-in-time float series.
type Gauge struct {
	name   string
	labels []Label
	bits   atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value set.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a log-scaled distribution series (stats.Histogram with 8
// sub-buckets per octave, ~9% quantile resolution).
type Histogram struct {
	name   string
	labels []Label
	mu     sync.Mutex
	hist   *stats.Histogram
}

// ObserveBatch records vs in order under one lock acquisition: the series,
// its sum included, ends as it would after one observation per value in
// turn.
func (h *Histogram) ObserveBatch(vs []float64) {
	h.mu.Lock()
	for _, v := range vs {
		h.hist.Add(v)
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hist.Count()
}

// Mean returns the exact mean of all observations.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hist.Mean()
}

// Quantile returns the approximate q-quantile (0 <= q <= 1).
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hist.Quantile(q)
}

// CounterSnap is one counter series in a snapshot.
type CounterSnap struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugeSnap is one gauge series in a snapshot.
type GaugeSnap struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistSnap is one histogram series in a snapshot, reduced to the summary
// statistics the serving tier reports.
type HistSnap struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Count  int64   `json:"count"`
	Mean   float64 `json:"mean"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of every series in a registry, each kind
// sorted by series key. It shares no memory with the registry.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for _, k := range det.SortedKeys(r.counters) {
		c := r.counters[k]
		s.Counters = append(s.Counters, CounterSnap{
			Name: c.name, Labels: append([]Label(nil), c.labels...), Value: c.Value(),
		})
	}
	for _, k := range det.SortedKeys(r.gauges) {
		g := r.gauges[k]
		s.Gauges = append(s.Gauges, GaugeSnap{
			Name: g.name, Labels: append([]Label(nil), g.labels...), Value: g.Value(),
		})
	}
	for _, k := range det.SortedKeys(r.hists) {
		h := r.hists[k]
		s.Histograms = append(s.Histograms, HistSnap{
			Name: h.name, Labels: append([]Label(nil), h.labels...),
			Count: h.Count(), Mean: h.Mean(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		})
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON. Field and series order are
// fixed, so output bytes are a pure function of the snapshot.
func (s Snapshot) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("obs: encoding metrics snapshot: %w", err)
	}
	return bw.Flush()
}
