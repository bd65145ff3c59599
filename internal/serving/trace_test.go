package serving

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"searchmem/internal/obs"
)

// tracedCluster wires a small faulty cluster with tracing and a shared
// registry, sized so deadlines and hedges actually fire.
func tracedCluster(tracer *obs.Tracer, reg *obs.Registry) *Cluster {
	cfg := DefaultConfig()
	cfg.Leaves, cfg.Fanout = 8, 4
	cfg.LeafDeadlineNS = 8e6
	cfg.HedgeDelayNS = 3e6
	cfg.Name = "traced"
	cfg.Tracer = tracer
	cfg.Registry = reg
	execs := make([]Executor, cfg.Leaves)
	for i := range execs {
		execs[i] = &FaultyExecutor{
			Inner:      NewSyntheticExecutor(uint32(i), cfg.TopK),
			SlowProb:   0.2,
			SlowFactor: 6,
			FailProb:   0.1,
			Seed:       uint64(i) * 7919,
		}
	}
	return NewCluster(cfg, execs)
}

func serveTracedQueries(t *testing.T) ([]obs.Trace, []Result) {
	t.Helper()
	tracer := obs.NewTracer()
	c := tracedCluster(tracer, obs.NewRegistry())
	var results []Result
	for q := 0; q < 6; q++ {
		terms := []uint32{uint32(q) * 17, uint32(q)*31 + 2}
		results = append(results, c.Serve(Query{Terms: terms}))
	}
	// Re-serve the first query: it was cached (unless partial), so the
	// trace set also covers the cache-hit path.
	results = append(results, c.Serve(Query{Terms: []uint32{0, 2}}))
	return tracer.Traces(), results
}

func TestServeTraceMatchesLatencyModel(t *testing.T) {
	traces, results := serveTracedQueries(t)
	if len(traces) != len(results) {
		t.Fatalf("%d traces for %d queries", len(traces), len(results))
	}
	sawHedge, sawCacheHit := false, false
	for i, tr := range traces {
		if tr.Name != "query" || len(tr.Spans) == 0 {
			t.Fatalf("trace %d malformed: %+v", i, tr)
		}
		root := tr.Spans[0]
		if root.Parent != 0 || root.Name != "query" {
			t.Fatalf("trace %d: first span is %q (parent %d), want root query", i, root.Name, root.Parent)
		}
		// The root span covers the query's exact modeled latency.
		if root.StartNS != 0 || root.EndNS != results[i].LatencyNS {
			t.Errorf("trace %d: root span [%g, %g], result latency %g",
				i, root.StartNS, root.EndNS, results[i].LatencyNS)
		}
		if got := root.Attr("partial"); got != strconv.FormatBool(results[i].Partial) {
			t.Errorf("trace %d: partial attr %q, result %v", i, got, results[i].Partial)
		}
		if results[i].FromCache {
			sawCacheHit = true
			if root.Attr("from_cache") != "true" || len(tr.Spans) != 3 {
				t.Errorf("trace %d: cache hit trace has %d spans: %+v", i, len(tr.Spans), tr.Spans)
			}
			continue
		}
		// Full traversal: every span nests inside its parent's window and
		// parent links point at already-created spans.
		byID := map[uint64]obs.Span{}
		leaves, hedges := 0, 0
		for _, sp := range tr.Spans {
			byID[sp.ID] = sp
			if sp.Parent != 0 {
				p, ok := byID[sp.Parent]
				if !ok {
					t.Fatalf("trace %d: span %q references unseen parent %d", i, sp.Name, sp.Parent)
				}
				if sp.StartNS < p.StartNS {
					t.Errorf("trace %d: span %q starts before parent %q", i, sp.Name, p.Name)
				}
			}
			switch {
			case len(sp.Name) > 5 && sp.Name[:5] == "leaf[" && sp.Name[len(sp.Name)-8:] == "/primary":
				leaves++
			case len(sp.Name) > 5 && sp.Name[:5] == "leaf[" && sp.Name[len(sp.Name)-6:] == "/hedge":
				hedges++
				sawHedge = true
			}
		}
		if leaves != 8 {
			t.Errorf("trace %d: %d primary leaf spans, want 8", i, leaves)
		}
		_ = hedges
	}
	if !sawHedge {
		t.Error("no hedge spans across traced queries; fault injection should trigger hedging")
	}
	if !sawCacheHit {
		t.Error("no cache-hit trace recorded")
	}
}

func TestServeTraceDeterministic(t *testing.T) {
	a, _ := serveTracedQueries(t)
	b, _ := serveTracedQueries(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed single-driver runs produced different traces")
	}
}

// TestServeTraceGolden pins the span trees of the seven traced queries
// byte for byte to the digest captured before tracing moved onto the
// scratch-backed kernel (see the note above TestRunLoadGolden).
func TestServeTraceGolden(t *testing.T) {
	const want = "2aa707603286eb2dcdfa938af722b2191d22e2b6257b8702c07e04999f4b9bc0"
	traces, _ := serveTracedQueries(t)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", traces)))); got != want {
		t.Fatalf("trace digest %s, want %s", got, want)
	}
}

// TestTracingObservesWithoutChanging is the observation law: a tracer
// records exactly one trace per served query on every entry point and moves
// no Result, LoadStats, FleetStats or Metrics field.
func TestTracingObservesWithoutChanging(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 128
	cfg.LeafDeadlineNS = 8e6
	cfg.HedgeDelayNS = 4e6
	cfg.LeafCapacity = 64
	open := Scenario{
		Clients: 200, VocabSize: 400, Skew: 1.1, Seed: 17,
		Arrival:    &RateCurve{BaseQPS: 2000, Bursts: []Burst{{StartNS: 1e8, EndNS: 1.5e8, Factor: 3}}},
		DurationNS: 3e8,
		Events: []FleetEvent{
			{AtNS: 1e8, FlushCache: true},
			{AtNS: 2e8, OutageLeaf: 0, OutageLeaves: 4, OutageDurationNS: 5e7},
		},
	}
	run := func(tracer *obs.Tracer) (LoadStats, Metrics, FleetStats, Metrics, []int) {
		cfg := cfg
		cfg.Tracer = tracer
		var traces []int
		c := faultyCluster(cfg, 12, 3)
		st := RunLoad(c, 8, 40, 400, 1.1, 9)
		traces = append(traces, len(tracer.Take()))
		cs := faultyCluster(cfg, 12, 3)
		fs := RunScenario(cs, open)
		traces = append(traces, len(tracer.Take()))
		return st, c.Metrics(), fs, cs.Metrics(), traces
	}
	st0, m0, fs0, fm0, _ := run(nil)
	st1, m1, fs1, fm1, traces := run(obs.NewTracer())
	if st0 != st1 || m0 != m1 {
		t.Errorf("tracing changed RunLoad:\n%+v %+v\n%+v %+v", st0, m0, st1, m1)
	}
	if fs0 != fs1 || fm0 != fm1 {
		t.Errorf("tracing changed RunScenario:\n%+v %+v\n%+v %+v", fs0, fm0, fs1, fm1)
	}
	if int64(traces[0]) != st1.Queries || int64(traces[1]) != fs1.Served || fs1.Served == 0 {
		t.Errorf("traces per run = %v, want %d and %d", traces, st1.Queries, fs1.Served)
	}

	tracer := obs.NewTracer()
	plain, pm := zipfStream(nil)
	traced, tm := zipfStream(tracer)
	if !reflect.DeepEqual(plain, traced) || pm != tm {
		t.Error("tracing changed Serve results or metrics")
	}
	if n := len(tracer.Traces()); n != len(traced) {
		t.Errorf("%d traces for %d served queries", n, len(traced))
	}
}

func TestServeUntracedRecordsNothing(t *testing.T) {
	c := tracedCluster(nil, nil)
	c.Serve(Query{Terms: []uint32{1, 2}})
	// Config.Tracer was nil: tracing is fully disabled, and the private
	// registry still captures metrics.
	if got := c.Metrics().Queries; got != 1 {
		t.Fatalf("metrics queries = %d, want 1", got)
	}
}

func TestSharedRegistryLabelsClusters(t *testing.T) {
	reg := obs.NewRegistry()
	c1 := tracedCluster(nil, reg)
	cfg := DefaultConfig()
	cfg.Name = "other"
	cfg.Registry = reg
	c2 := NewCluster(cfg, nil)
	c1.Serve(Query{Terms: []uint32{1}})
	c2.Serve(Query{Terms: []uint32{1}})
	c2.Serve(Query{Terms: []uint32{2}})

	snap := reg.Snapshot()
	byCluster := map[string]int64{}
	for _, cs := range snap.Counters {
		if cs.Name != "serving_queries_total" {
			continue
		}
		for _, l := range cs.Labels {
			if l.Key == "cluster" {
				byCluster[l.Value] = cs.Value
			}
		}
	}
	if byCluster["traced"] != 1 || byCluster["other"] != 2 {
		t.Fatalf("per-cluster query counters = %v, want traced=1 other=2", byCluster)
	}
}
