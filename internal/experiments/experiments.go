// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a registered, parameterized runner that
// returns a renderable result (a table or a set of series) whose rows match
// the paper's presentation.
//
// Experiments accept an Options scale so the same code serves fast unit
// tests (shrunken profiles, short budgets) and the full benchmark harness
// (cmd/searchsim, bench/).
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"searchmem/internal/det"
	"searchmem/internal/obs"
	"searchmem/internal/platform"
	"searchmem/internal/search"
	"searchmem/internal/workload"
)

// Options scales an experiment run.
type Options struct {
	// Shrink divides workload sizes (1 = full calibrated scale).
	Shrink int
	// Budget is the measured instruction budget per configuration.
	Budget int64
	// Threads is the trace thread count for multi-threaded measurements.
	Threads int
	// Seed varies the input streams.
	Seed uint64
	// Parallel fans sweep points across worker goroutines (see parallel.go).
	// Rendered output is byte-identical to a serial run; only wall-clock and
	// the interleaving of Logf progress lines change.
	Parallel bool
	// TraceSpillDir, when non-empty, spills the recordings' finished
	// compressed blocks to unlinked temp files in this directory instead of
	// keeping them in RAM, bounding even the recording phase's RSS to one
	// encoding block. Rendered output is byte-identical either way (see
	// DESIGN.md §9).
	TraceSpillDir string
	// FleetClients, when positive, overrides the modeled user population
	// of the fleet-scale sweeps (figF1/figF2; cmd/searchsim -fleet-clients).
	FleetClients int
	// Verbose enables progress output via Logf. A line that starts with
	// "done: " ends the step the rest of it began, so a logger may time the
	// step (cmd/searchsim -v prints its wall time).
	Logf func(format string, args ...any)
	// Tracer, when non-nil, collects distributed traces from experiments
	// that drive the serving tree or the sampling profiler (exported via
	// cmd/searchsim -trace).
	Tracer *obs.Tracer
	// Metrics, when non-nil, is the shared registry experiment clusters
	// report into (exported via cmd/searchsim -metrics).
	Metrics *obs.Registry
}

// Fast returns options for quick runs (unit tests).
func Fast() Options {
	return Options{Shrink: 8, Budget: 800_000, Threads: 4, Seed: 1, Parallel: true}
}

// Full returns options at calibrated scale (benchmarks, cmd/searchsim).
func Full() Options {
	return Options{Shrink: 1, Budget: 6_000_000, Threads: 16, Seed: 1, Parallel: true}
}

// logf logs progress when a logger is attached.
func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Result is a renderable experiment outcome.
type Result interface {
	Render() string
}

// Experiment is one registered reproduction.
type Experiment struct {
	// ID is the lookup key ("table1", "fig6b", ...).
	ID string
	// Title describes the artifact.
	Title string
	// PaperRef cites the paper's table/figure.
	PaperRef string
	// Run executes the experiment within a context.
	Run func(*Context) (Result, error)
}

// registry holds all experiments in registration order.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments in order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Context carries options and caches expensive workload builds across
// experiments in one session.
type Context struct {
	Opts Options

	// runners memoizes built workloads, each wrapped in a recording Replayer
	// so sweep points can re-run the same (threads, budget, seed) key without
	// re-executing the stateful workload; indexes memoizes the search index
	// images those workloads (and the per-point runners of fig4/fig5) are
	// built from.
	mu      sync.Mutex
	runners map[string]*workload.Replayer
	indexes memo[indexKey, builtIndex]

	// curves memoizes derived profiles (hit curves, perf model, sweeps);
	// streams memoizes the post-L3 port streams sweeps share (parallel.go).
	curves  memo[curveKey, any]
	streams memo[streamKey, *retainedStream]

	// own serializes measureOwn's build-and-record phase for runners with
	// an index of their own, so one such index is alive at a time.
	own sync.Mutex

	// reversePoints makes serial runPoints walk its points last to first:
	// the tests' stand-in for the least favourable parallel schedule.
	reversePoints bool
}

// memo is a single-flight map: get computes each key's value once. The map
// lock is not held across a compute, so concurrent callers of one key share
// one compute, different keys compute at the same time, and a compute may
// ask for other keys. The zero value is ready to use.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	m     map[K]*memoEntry[V]
	order []*memoEntry[V] // entries in creation order
}

// memoEntry is one memoized value; done closes once it is computed (or its
// compute panicked, leaving the zero value), releasing every waiter.
type memoEntry[V any] struct {
	done chan struct{}
	v    V
}

// get returns the value for key, computing it on first use; fresh reports
// whether this call computed it.
func (m *memo[K, V]) get(key K, compute func() V) (v V, fresh bool) {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	e := m.m[key]
	if e != nil {
		m.mu.Unlock()
		<-e.done
		return e.v, false
	}
	e = &memoEntry[V]{done: make(chan struct{})}
	m.m[key] = e
	m.order = append(m.order, e)
	m.mu.Unlock()
	defer close(e.done)
	e.v = compute()
	return e.v, true
}

// has reports whether key has an entry, computed or in flight.
func (m *memo[K, V]) has(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m[key] != nil
}

// values returns every entry's value in creation order, computing none: an
// in-flight entry is waited for.
func (m *memo[K, V]) values() []V {
	m.mu.Lock()
	entries := m.order[:len(m.order):len(m.order)]
	m.mu.Unlock()
	out := make([]V, 0, len(entries))
	for _, e := range entries {
		<-e.done
		out = append(out, e.v)
	}
	return out
}

// indexKey is everything a search index image depends on.
type indexKey struct {
	corpus       search.CorpusConfig
	featureBytes int
}

// builtIndex is one memoized image build.
type builtIndex struct {
	idx *search.Index
	err error
}

// curveKey identifies one memoized derived profile (hit curve, perf model,
// segment stack-distance profile, L4 sweep, ...). kind namespaces the entry;
// arg carries the per-kind parameter (thread count, associativity, ...).
type curveKey struct {
	kind string
	arg  int64
}

// curve returns the context's memoized value for key, computing it on first
// use, single-flight per key (memo).
func (c *Context) curve(key curveKey, compute func() any) any {
	v, _ := c.curves.get(key, compute)
	return v
}

// NewContext returns a context with the given options.
func NewContext(opts Options) *Context {
	if opts.Shrink <= 0 {
		opts.Shrink = 1
	}
	if opts.Budget <= 0 {
		opts.Budget = 6_000_000
	}
	if opts.Threads <= 0 {
		opts.Threads = 16
	}
	return &Context{Opts: opts, runners: make(map[string]*workload.Replayer)}
}

// buildRunner builds a private runner for wl on the context's memoized
// index image for wl's corpus, building the image on first use. The image
// is immutable and outlives the runner; a Context is the only thing that
// retains one, which is what lets every runner over one corpus — Leaf(),
// Sweep(), fig4's and fig5's points — pay for a single index build.
func (c *Context) buildRunner(wl workload.SearchWorkload) *workload.SearchRunner {
	key := indexKey{corpus: wl.Engine.Corpus, featureBytes: wl.Engine.FeatureBytes}
	b, _ := c.indexes.get(key, func() builtIndex {
		c.Opts.logf("building index for %s (shrink %d)...", wl.WLName, c.Opts.Shrink)
		idx, err := search.BuildIndex(wl.Engine)
		c.Opts.logf("done: building index for %s (shrink %d)...", wl.WLName, c.Opts.Shrink)
		return builtIndex{idx, err}
	})
	if b.err != nil {
		panic(b.err)
	}
	r, err := wl.BuildFrom(b.idx)
	if err != nil {
		panic(err)
	}
	return r
}

// runner builds (or returns the cached) replay-wrapped runner for a search
// profile. A Context's recordings are always block-compressed: across a
// session the decode costs less than the page faults of the flat store, at
// under a quarter of the bytes.
func (c *Context) runner(key string, wl workload.SearchWorkload) *workload.Replayer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.runners[key]; ok {
		return r
	}
	c.Opts.logf("building workload %s (shrink %d)...", key, c.Opts.Shrink)
	r := c.replayer(c.buildRunner(wl))
	c.runners[key] = r
	return r
}

// replayer wraps r in a Replayer that stores its recordings as every one of
// the Context's does: block-compressed, and spilled under
// Opts.TraceSpillDir when that is set.
func (c *Context) replayer(r workload.Runner) *workload.Replayer {
	rep := workload.NewReplayer(r)
	rep.SetStore(workload.StoreConfig{Compress: true, SpillDir: c.Opts.TraceSpillDir})
	return rep
}

// measureOwn measures mc on a runner built for this one measurement
// (table1's private columns, bandwidth's CloudSuite leg): recordOwn records
// it through the Context's store, so -trace-spill bounds it too, and drops
// it; then the recordings replay.
func (c *Context) measureOwn(build func() workload.Runner, mc workload.MeasureConfig, index bool) workload.Metrics {
	rep := c.recordOwn(build, mc, index)
	defer rep.Close()
	return workload.Measure(rep, mc)
}

// recordOwn builds a private runner and records both of mc's runs. A
// search runner (index) carries an index of its own, 170-220 MiB at full
// scale against 30-50 MiB of recordings, so it builds and records under
// c.own: concurrent columns keep one such index alive at a time.
func (c *Context) recordOwn(build func() workload.Runner, mc workload.MeasureConfig, index bool) *workload.Replayer {
	if index {
		c.own.Lock()
		defer c.own.Unlock()
	}
	r := build()
	own := &ownRunner{r: r, name: r.Name(), overlap: r.MemOverlap()}
	rep := c.replayer(own)
	workload.PreRecord(rep, mc)
	own.r = nil // both runs are recorded, and a replay never runs the inner runner
	return rep
}

// ownRunner lends measureOwn's runner to its Replayer until both runs are
// recorded; its name and memory overlap outlive the runner.
type ownRunner struct {
	r       workload.Runner
	name    string
	overlap float64
}

func (o *ownRunner) Name() string        { return o.name }
func (o *ownRunner) MemOverlap() float64 { return o.overlap }
func (o *ownRunner) Run(threads int, budget int64, seed uint64, s workload.Sinks) workload.Stats {
	return o.r.Run(threads, budget, seed, s)
}

// TraceStores returns the recording-storage footprint of every built
// runner, keyed by runner-cache key.
func (c *Context) TraceStores() map[string]workload.StoreStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]workload.StoreStats, len(c.runners))
	for key, r := range c.runners {
		out[key] = r.StoreStats()
	}
	return out
}

// ReportTraceStores publishes per-runner recording-storage gauges into reg:
// trace_store_accesses, trace_store_bytes, trace_store_spilled_bytes, and
// trace_store_branch_bytes (the branch logs as encoded, resident under every
// store and not part of trace_store_bytes), labeled runner=<cache key>. The
// values are pure functions of the recorded streams, so a registry holding
// only these stays byte-deterministic for a fixed seed.
func (c *Context) ReportTraceStores(reg *obs.Registry) {
	if reg == nil {
		return
	}
	stores := c.TraceStores()
	for _, key := range det.SortedKeys(stores) {
		st := stores[key]
		l := obs.L("runner", key)
		reg.Gauge("trace_store_accesses", l).Set(float64(st.Accesses))
		reg.Gauge("trace_store_bytes", l).Set(float64(st.StoredBytes))
		reg.Gauge("trace_store_spilled_bytes", l).Set(float64(st.SpilledBytes))
		reg.Gauge("trace_store_branch_bytes", l).Set(float64(st.BranchBytes))
	}
}

// Leaf returns the cached S1-leaf micro runner (replay-wrapped: repeated
// measurements with the same key replay one recording).
func (c *Context) Leaf() *workload.Replayer {
	return c.runner("s1-leaf", workload.S1Leaf(c.Opts.Shrink))
}

// Sweep returns the cached S1-leaf capacity-sweep runner (replay-wrapped).
func (c *Context) Sweep() *workload.Replayer {
	return c.runner("s1-leaf-sweep", workload.S1LeafSweep(c.Opts.Shrink))
}

// Every trace-driven measurement starts from one of three shapes, and a
// figure states only the fields it changes.

// oneCore is the single-thread shape: one core, one SMT way, one thread.
func oneCore(c *Context, plat platform.Platform, seed uint64, warmup float64) workload.MeasureConfig {
	return workload.MeasureConfig{
		Platform: plat,
		Cores:    1, SMTWays: 1, Threads: 1,
		Budget:         c.Opts.Budget,
		Seed:           seed,
		WarmupFraction: warmup,
	}
}

// leafShape is the loaded leaf: up to 16 threads two to a core on PLT1,
// the shape of the CAT sweep and of the perf model's baseline.
func leafShape(c *Context) workload.MeasureConfig {
	o := c.Opts
	threads := min(o.Threads, 16)
	return workload.MeasureConfig{
		Platform: platform.PLT1(),
		Cores:    (threads + 1) / 2, SMTWays: 2, Threads: threads,
		Budget:         o.Budget * 2,
		Seed:           o.Seed,
		WarmupFraction: 1.5,
	}
}

// tierBase is the sweep shape: the rebalanced 23 MiB L3 with the paper's
// 512 MiB direct-mapped L4, at sweep scale. The L4 sweep varies the L4; the
// tier, policy and predictor sweeps hang their knob below it.
func tierBase(c *Context) workload.MeasureConfig {
	o := c.Opts
	return workload.MeasureConfig{
		Platform: platform.PLT1().ScaleCaches(workload.SweepScale),
		Cores:    min(o.Threads, 8), SMTWays: 2,
		Threads:        min(o.Threads, 16),
		L3Size:         workload.SimUnits(23 << 20),
		L4Size:         workload.SimUnits(512 << 20),
		Budget:         o.Budget * 2,
		Seed:           o.Seed,
		WarmupFraction: 1.0,
	}
}

// leafMetrics is the S1 leaf on PLT1 in the one-core shape: Table I's
// S1-leaf rows, Figure 3 and Figure 6a read this one measurement.
func leafMetrics(c *Context) workload.Metrics {
	return c.curve(curveKey{kind: "s1leaf"}, func() any {
		return workload.Measure(c.Leaf(), oneCore(c, platform.PLT1(), c.Opts.Seed, 2.0))
	}).(workload.Metrics)
}

// --- renderable result types ---

// Table is a titled grid.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	// Note is appended under the table (provenance, units).
	Note string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render implements Result with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// Series is one named line of (x, y) points.
type Series struct {
	Name string
	X, Y []float64
}

// Figure is a titled set of series sharing an x-axis.
type Figure struct {
	Title          string
	XLabel, YLabel string
	Series         []Series
	Note           string
	// XFormat, when non-nil, renders x-axis values (e.g. byte counts via
	// mib); trimFloat otherwise.
	XFormat func(x float64) string
}

// Add appends a point to the named series, creating it on first use.
func (f *Figure) Add(name string, x, y float64) {
	for i := range f.Series {
		if f.Series[i].Name == name {
			f.Series[i].X = append(f.Series[i].X, x)
			f.Series[i].Y = append(f.Series[i].Y, y)
			return
		}
	}
	f.Series = append(f.Series, Series{Name: name, X: []float64{x}, Y: []float64{y}})
}

// Get returns the named series, or nil.
func (f *Figure) Get(name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// Render implements Result: one row per x value, one column per series.
func (f *Figure) Render() string {
	// Collect the union of x values.
	xs := map[float64]struct{}{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xs[x] = struct{}{}
		}
	}
	sorted := det.SortedKeys(xs)

	t := Table{Title: fmt.Sprintf("%s\n(y: %s)", f.Title, f.YLabel), Note: f.Note}
	t.Headers = append(t.Headers, f.XLabel)
	for _, s := range f.Series {
		t.Headers = append(t.Headers, s.Name)
	}
	xfmt := f.XFormat
	if xfmt == nil {
		xfmt = trimFloat
	}
	for _, x := range sorted {
		row := []string{xfmt(x)}
		for _, s := range f.Series {
			cell := ""
			for i := range s.X {
				if s.X[i] == x {
					cell = trimFloat(s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t.Render()
}

// trimFloat formats a float compactly.
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// pct formats a fraction as a percentage string.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// mib formats a byte count with an adaptive binary unit. The old
// fixed-MiB rendering (b>>20) truncated every sub-MiB value — block sizes,
// small partitions — to "0"; picking the unit by magnitude keeps those
// legible without changing how MiB-scale capacities read.
func mib(b int64) string {
	switch {
	case b < 1<<10:
		return fmt.Sprintf("%d B", b)
	case b < 1<<20:
		return trimFloat(float64(b)/(1<<10)) + " KiB"
	case b < 1<<30:
		return trimFloat(float64(b)/(1<<20)) + " MiB"
	default:
		return trimFloat(float64(b)/(1<<30)) + " GiB"
	}
}
