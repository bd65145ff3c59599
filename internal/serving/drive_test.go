package serving

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"searchmem/internal/obs"
)

// recordingExec wraps a leaf and appends every latency it returns, failed
// calls included, to a log shared by the cluster's leaves. Leaf calls run
// under driveMu, one at a time, so the log needs no lock of its own.
type recordingExec struct {
	Executor
	log *[]float64
}

func (r recordingExec) SearchBuf(terms []uint32, docs []uint32, scores []float32) (int, float64, error) {
	n, lat, err := r.Executor.SearchBuf(terms, docs, scores)
	*r.log = append(*r.log, lat)
	return n, lat, err
}

// counterValues reads the registry's serving counters by series name.
func counterValues(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, cs := range reg.Snapshot().Counters {
		out[cs.Name] = cs.Value
	}
	return out
}

// requireClose fails unless got is within rel of want, relative to want.
func requireClose(t *testing.T, what string, got, want, rel float64) {
	t.Helper()
	if math.Abs(got-want) > rel*math.Abs(want) {
		t.Fatalf("%s = %.17g, want %.17g within %g relative", what, got, want, rel)
	}
}

// TestMetricsRecount recounts the published metrics of a faulty, hedged
// cluster with a small cache from what its drives returned and what its
// leaves were seen to return, sharing no code with clusterMetrics: first N
// Serve calls (each its own drive, so each publishes a partly filled
// buffer), then one RunLoad long enough to fill every stage's buffer
// several times over.
func TestMetricsRecount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 16
	cfg.LeafDeadlineNS = 8e6
	cfg.HedgeDelayNS = 4e6
	cfg.Registry = obs.NewRegistry()
	var calls []float64
	execs := make([]Executor, cfg.Leaves)
	for i := range execs {
		execs[i] = recordingExec{&FaultyExecutor{
			Inner:    NewSyntheticExecutor(uint32(i), cfg.TopK),
			SlowProb: 0.10, SlowFactor: 8,
			FailProb: 0.02,
			FlapProb: 0.01,
			Seed:     41 + uint64(i)*7919,
		}, &calls}
	}
	c := NewCluster(cfg, execs)

	const n = 700
	var hits, partials, tree int64
	var mergeSum float64
	for i := 0; i < n; i++ {
		terms := []uint32{uint32(i % 101), 7} // cold queries between hot ones
		if i%2 == 1 {
			terms = []uint32{uint32(i % 6), 3}
		}
		r := c.Serve(Query{Terms: terms})
		switch {
		case r.FromCache:
			hits++
		default:
			tree++
			mergeSum += r.LatencyNS - frontendOverheadNS - networkHopNS - rootOverheadNS
		}
		if r.Partial {
			partials++
		}
	}
	if hits == 0 || partials == 0 || tree == 0 {
		t.Fatalf("%d queries gave %d hits, %d partial: the recount needs all three kinds", n, hits, partials)
	}

	got := counterValues(cfg.Registry)
	for name, want := range map[string]int64{
		"serving_queries_total":         n,
		"serving_cache_hits_total":      hits,
		"serving_partial_results_total": partials,
	} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
	}
	m := c.Metrics()
	if m.Frontend.Count != n || m.Frontend.MeanNS != frontendOverheadNS {
		t.Errorf("frontend: n=%d mean=%v, want n=%d mean=%v", m.Frontend.Count, m.Frontend.MeanNS, n, frontendOverheadNS)
	}
	if m.CacheProbe.Count != n || m.CacheProbe.MeanNS != networkHopNS {
		t.Errorf("cache probe: n=%d mean=%v, want n=%d mean=%v", m.CacheProbe.Count, m.CacheProbe.MeanNS, n, networkHopNS)
	}
	if m.Merge.Count != tree {
		t.Fatalf("merge count = %d, want %d non-cache-hit queries", m.Merge.Count, tree)
	}
	requireClose(t, "merge mean", m.Merge.MeanNS, mergeSum/float64(tree), 1e-12)
	requireLeafService(t, c, calls)

	// One closed-loop drive of 1 200 queries fills the frontend and probe
	// buffers twice over and the leaf-service buffer dozens of times.
	st := RunLoad(c, 8, 150, 400, 1.1, 5)
	m = c.Metrics()
	if m.Queries != n+1200 || m.Frontend.Count != n+1200 || m.CacheProbe.Count != n+1200 {
		t.Fatalf("after RunLoad: queries %d, frontend %d, probe %d, want %d each",
			m.Queries, m.Frontend.Count, m.CacheProbe.Count, n+1200)
	}
	if m.Frontend.MeanNS != frontendOverheadNS || m.CacheProbe.MeanNS != networkHopNS {
		t.Fatalf("after RunLoad: frontend mean %v, probe mean %v", m.Frontend.MeanNS, m.CacheProbe.MeanNS)
	}
	if m.CacheHits != st.CacheHits || m.PartialResults != partials+st.PartialResults {
		t.Fatalf("after RunLoad: %d hits, %d partial; the drives returned %d and %d+%d",
			m.CacheHits, m.PartialResults, st.CacheHits, partials, st.PartialResults)
	}
	if m.Merge.Count != m.Queries-m.CacheHits {
		t.Fatalf("after RunLoad: merge count %d, want %d", m.Merge.Count, m.Queries-m.CacheHits)
	}
	requireLeafService(t, c, calls)
}

// requireLeafService holds the leaf-service stage to the recorded calls:
// one observation per call, summing to the same total.
func requireLeafService(t *testing.T, c *Cluster, calls []float64) {
	t.Helper()
	m := c.Metrics().LeafService
	if m.Count != int64(len(calls)) {
		t.Fatalf("leaf-service count = %d, want %d recorded calls", m.Count, len(calls))
	}
	var sum float64
	for _, lat := range calls {
		sum += lat
	}
	requireClose(t, "leaf-service sum", m.MeanNS*float64(m.Count), sum, 1e-12)
}

// TestReadersAndIntrudersDuringScenario runs an open-loop scenario while
// other goroutines loop over the cluster: readers take Metrics and registry
// snapshots, intruders Serve and run short closed loops. Under -race it
// checks the ownership rule (only the holder of driveMu touches the scratch,
// the cache tier and the pending metrics); in any mode, a reader never sees
// the published query count go down, and afterwards the count is every
// query served.
func TestReadersAndIntrudersDuringScenario(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 64
	cfg.LeafCapacity = 64
	cfg.LeafDeadlineNS = 8e6
	cfg.HedgeDelayNS = 4e6
	cfg.Registry = obs.NewRegistry()
	c := faultyCluster(cfg, 12, 5)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(step func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					step(i)
				}
			}
		}()
	}
	var last int64
	loop(func(int) {
		if q := c.Metrics().Queries; q < last {
			t.Errorf("published queries went down: %d after %d", q, last)
		} else {
			last = q
		}
	})
	loop(func(int) { cfg.Registry.Snapshot() })
	var served atomic.Int64
	loop(func(i int) {
		c.Serve(Query{Terms: []uint32{uint32(i % 50), 3}})
		served.Add(1)
	})
	loop(func(i int) {
		RunLoad(c, 2, 3, 50, 1.1, uint64(i))
		served.Add(6)
	})

	fs := RunScenario(c, Scenario{
		Clients: 2000, VocabSize: 400, Skew: 1.1, Seed: 13,
		Arrival:    &RateCurve{BaseQPS: 20_000},
		DurationNS: 0.2e9,
		Events:     []FleetEvent{{AtNS: 0.1e9, FlushCache: true}, {AtNS: 0.05e9, OutageLeaves: 4, OutageDurationNS: 0.05e9}},
	})
	close(stop)
	wg.Wait()
	if fs.Served == 0 {
		t.Fatal("the scenario served nothing")
	}
	if got, want := c.Metrics().Queries, fs.Served+served.Load(); got != want {
		t.Fatalf("published queries = %d, want %d from the run and %d from the intruders", got, fs.Served, served.Load())
	}
}

// signalExec wraps a leaf and closes started at its first call after arm.
type signalExec struct {
	Executor
	armed   atomic.Bool
	once    sync.Once
	started chan struct{}
}

func (s *signalExec) SearchBuf(terms []uint32, docs []uint32, scores []float32) (int, float64, error) {
	if s.armed.Load() {
		s.once.Do(func() { close(s.started) })
	}
	return s.Executor.SearchBuf(terms, docs, scores)
}

// TestDriveDuringScenarioLandsOutsideIt issues a Serve of a query no client
// draws, or a short RunLoad, from another goroutine once a scenario is known
// to be running (a leaf has been called). Either calls every leaf, moving
// the synthetic leaves' jitter streams, and caches what it served, but both
// are drives, so each lands before or after the run, never inside it: the
// run's FleetStats must equal the intrusion-first reference or the
// run-first one, and nothing else.
func TestDriveDuringScenarioLandsOutsideIt(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 256
	cfg.LeafCapacity = 64
	sc := Scenario{
		Clients: 64, VocabSize: 300, Skew: 1.1, Seed: 31,
		Arrival: &RateCurve{BaseQPS: 8000}, DurationNS: 4.8e8,
	}
	build := func() (*Cluster, *signalExec) {
		execs := make([]Executor, cfg.Leaves)
		for i := range execs {
			execs[i] = &FaultyExecutor{Inner: NewSyntheticExecutor(uint32(i), cfg.TopK), Seed: uint64(i)}
		}
		sig := &signalExec{Executor: execs[cfg.Leaves-1], started: make(chan struct{})}
		execs[cfg.Leaves-1] = sig
		c := NewCluster(cfg, execs)
		RunLoad(c, 8, 40, 300, 1.1, 7) // a warm cache, as a day would find it
		return c, sig
	}
	for _, tc := range []struct {
		name  string
		drive func(*Cluster)
	}{
		{"Serve", func(c *Cluster) { c.Serve(Query{Terms: []uint32{1 << 20, 1 << 20}}) }},
		{"RunLoad", func(c *Cluster) { RunLoad(c, 2, 5, 300, 1.1, 99) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := build()
			tc.drive(c)
			first := RunScenario(c, sc)
			c, _ = build()
			after := RunScenario(c, sc)
			if first == after {
				t.Fatalf("%s before the run changes nothing, so the test cannot tell where it landed", tc.name)
			}

			c, sig := build()
			sig.armed.Store(true)
			done := make(chan FleetStats)
			go func() { done <- RunScenario(c, sc) }()
			<-sig.started
			tc.drive(c)
			if got := <-done; got != first && got != after {
				t.Fatalf("%s landed inside the run:\n got  %+v\nfirst %+v\nafter %+v", tc.name, got, first, after)
			}
		})
	}
}
