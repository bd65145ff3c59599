package serving

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"searchmem/internal/obs"
	"searchmem/internal/stats"
)

// healthyFaultFree builds a cluster whose leaves support outage injection
// (FaultyExecutor) but inject no random faults, so scenario tests can
// attribute every partial result to the timeline.
func healthyFaultFree(cfg Config, n int, seed uint64) *Cluster {
	execs := make([]Executor, n)
	for i := range execs {
		execs[i] = &FaultyExecutor{
			Inner: NewSyntheticExecutor(uint32(i), cfg.TopK),
			Seed:  seed + uint64(i)*7919,
		}
	}
	cfg.Leaves = n
	return NewCluster(cfg, execs)
}

// The digests below were captured at the last commit that still carried
// three serve paths (a goroutine fan-out Serve, a pooled serial path and a
// linear-scan load driver), where equivalence tests proved all three
// bit-equal. They pin the one surviving kernel to that behaviour; the
// hand-computed fixedExec tests in robust_test.go are the oracle that shares
// no code with it.

// TestRunLoadGolden pins LoadStats and the Metrics snapshot of closed-loop
// runs over a healthy cached cluster and a faulty hedged one.
func TestRunLoadGolden(t *testing.T) {
	hedged := DefaultConfig()
	hedged.LeafDeadlineNS = 8e6
	hedged.HedgeDelayNS = 4e6
	healthy := func() *Cluster { return testCluster(4096) }
	faulty := func() *Cluster { return faultyCluster(hedged, 12, 7) }
	cases := []struct {
		name         string
		mk           func() *Cluster
		clients, qpc int
		want         string
	}{
		{"healthy-cached", healthy, 1, 50, "6eb0be191324ebad0c7041a45e740839b7a17ac870d406558c011cef779ea6a9"},
		{"healthy-cached", healthy, 8, 50, "30fb1239c71c38b468a9f427ccb2eef1fab0d842d4ee38a52b002d8040fca6e9"},
		{"healthy-cached", healthy, 97, 4, "43f19cc629fa7f0c3d0f227f0a8813683ee37dda4ee5e0d1731f65c2f3b3d8ab"},
		{"faulty-hedged", faulty, 1, 50, "e2cac68406f4ceec786cbe4d04dcbf0431c25552998ab94033260b97443a4092"},
		{"faulty-hedged", faulty, 8, 50, "7226a5b12d145001d6d77a06dfd07f467947a9a6821956efaf26ee83d8cfc2dc"},
		{"faulty-hedged", faulty, 97, 4, "f7e05cebe12171c2779d3b8cf4611aed8cde2165fb8b9abc90506f89898674c1"},
	}
	for _, tc := range cases {
		c := tc.mk()
		st := RunLoad(c, tc.clients, tc.qpc, 400, 1.1, 9)
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v|%+v", st, c.Metrics()))))
		if got != tc.want {
			t.Errorf("%s clients=%d: digest %s, want %s\n%+v", tc.name, tc.clients, got, tc.want, st)
		}
	}
}

// TestRunScenarioGolden is the open-loop sibling of TestRunLoadGolden:
// FleetStats and Metrics of a diurnal + burst + flush + outage day on a
// faulty hedged cluster, captured at the last commit whose event queue was
// the indexed binary heap over a Clients-sized next[] array. The horizon is
// either a fifth of the mean per-client inter-arrival (most of the
// population never arrives and is never queued) or ten times it (almost
// everyone is), with and without a per-client issue budget.
func TestRunScenarioGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 256
	cfg.LeafDeadlineNS = 40e6
	cfg.HedgeDelayNS = 5e6
	cfg.LeafCapacity = 400
	const d = 5e8
	cases := []struct {
		name         string
		clients, qpc int
		qps          float64
		want         string
	}{
		{"short-horizon", 5000, 0, 2000, "f5461b64c15aa5b61d810a9217e68ee6c4d143caf7f47c37a5ca178f1061e7bf"},
		{"short-horizon-budget", 5000, 3, 2000, "5955cd69c5f614a186d572c98323aa4ec21bc8d8ef213506df9e53cd656f64b6"},
		{"long-horizon", 200, 0, 4000, "56d72271bf8f3c12cc99b02adfc274106bfbdcd8377def7a0e7bff6f1721376d"},
		{"long-horizon-budget", 200, 3, 4000, "9fd4eb79abdd0d7c7276e76025d0dbaaf59317cdaa9938a859a4f2b2f01fa20b"},
	}
	for _, tc := range cases {
		c := faultyCluster(cfg, 12, 3)
		fs := RunScenario(c, Scenario{
			Clients:          tc.clients,
			QueriesPerClient: tc.qpc,
			VocabSize:        400,
			Skew:             1.1,
			Seed:             17,
			Arrival: &RateCurve{
				BaseQPS:          tc.qps,
				DiurnalAmplitude: 0.5,
				DiurnalPeriodNS:  0.8 * d,
				Bursts:           []Burst{{StartNS: 0.2 * d, EndNS: 0.3 * d, Factor: 3}},
			},
			DurationNS: d,
			Events: []FleetEvent{
				{AtNS: 0.4 * d, FlushCache: true},
				{AtNS: 0.6 * d, OutageLeaf: 0, OutageLeaves: 4, OutageDurationNS: 0.1 * d},
			},
		})
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v|%+v", fs, c.Metrics()))))
		if got != tc.want {
			t.Errorf("%s: digest %s, want %s\n%+v", tc.name, got, tc.want, fs)
		}
	}
}

// zipfStream serves the 400-query Zipf stream of TestServeGoldenStream on a
// faulty, hedged, congestion-modelled cluster with a small cache.
func zipfStream(tracer *obs.Tracer) ([]Result, Metrics) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 64
	cfg.LeafDeadlineNS = 8e6
	cfg.HedgeDelayNS = 4e6
	cfg.LeafCapacity = 32
	cfg.Tracer = tracer
	c := faultyCluster(cfg, 12, 3)
	rng := stats.NewRNG(41)
	zipf := stats.NewZipf(rng.Split(), 300, 1.1)
	out := make([]Result, 400)
	for q := range out {
		qid := zipf.Next()
		out[q] = c.Serve(Query{Terms: []uint32{uint32(qid), uint32(qid>>3) % 300}})
	}
	return out, c.Metrics()
}

// TestServeGoldenStream pins every Result of the stream (docs, scores,
// latency, flags — cache hits, hedges and dedup included) and the final
// Metrics.
func TestServeGoldenStream(t *testing.T) {
	const want = "36c0f70612477e6b8686b9215bb73c00c0a15d28ef0808b967be500c253179e7"
	results, m := zipfStream(nil)
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%+v\n", r)
	}
	fmt.Fprintf(h, "%+v\n", m)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("stream digest %s, want %s", got, want)
	}
}

// TestRateCurveAt checks the arrival-rate model point by point: diurnal
// peak and trough, multiplicative burst stacking, and the rate floor.
func TestRateCurveAt(t *testing.T) {
	rc := &RateCurve{BaseQPS: 1000, DiurnalAmplitude: 0.4, DiurnalPeriodNS: 4e9}
	if got := rc.At(0); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("At(0) = %v, want 1000", got)
	}
	if got := rc.At(1e9); math.Abs(got-1400) > 1e-6 { // sin peak at T/4
		t.Fatalf("At(T/4) = %v, want 1400", got)
	}
	if got := rc.At(3e9); math.Abs(got-600) > 1e-6 { // trough at 3T/4
		t.Fatalf("At(3T/4) = %v, want 600", got)
	}
	rc.Bursts = []Burst{
		{StartNS: 0.9e9, EndNS: 1.1e9, Factor: 2},
		{StartNS: 1e9, EndNS: 1.2e9, Factor: 3},
	}
	if got := rc.At(1e9); math.Abs(got-1400*6) > 1e-5 {
		t.Fatalf("stacked bursts At(T/4) = %v, want %v", got, 1400*6.0)
	}
	single := 1000 * (1 + 0.4*math.Sin(2*math.Pi*0.95e9/4e9)) * 2
	if got := rc.At(0.95e9); math.Abs(got-single) > 1e-6 {
		t.Fatalf("single burst At = %v, want %v", got, single)
	}
	floor := &RateCurve{BaseQPS: 1, DiurnalAmplitude: 0.99999999, DiurnalPeriodNS: 4e9}
	if got := floor.At(3e9); got < 1e-6 {
		t.Fatalf("rate floor violated: %v", got)
	}
}

// TestOpenLoopOverloadInflatesTail drives the same cluster shape at an
// offered load far beyond leaf capacity and checks that the open loop lets
// queueing feedback through: higher peak occupancy and a worse tail than
// the uncongested run.
func TestOpenLoopOverloadInflatesTail(t *testing.T) {
	mk := func(qps float64) FleetStats {
		cfg := DefaultConfig()
		cfg.CacheSlots = 0 // every query does leaf work
		cfg.LeafCapacity = 40
		return RunScenario(NewCluster(cfg, nil), Scenario{
			Clients:    300,
			VocabSize:  400,
			Skew:       1.1,
			Seed:       11,
			Arrival:    &RateCurve{BaseQPS: qps},
			DurationNS: 3e8,
		})
	}
	calm := mk(200)
	hot := mk(8000)
	if hot.PeakInflight <= calm.PeakInflight || hot.PeakInflight < 5 {
		t.Fatalf("overload PeakInflight %d not above calm %d", hot.PeakInflight, calm.PeakInflight)
	}
	if hot.P99NS <= calm.P99NS {
		t.Fatalf("overload P99 %.0f not above calm %.0f", hot.P99NS, calm.P99NS)
	}
	if calm.OfferedQPS != 200 || hot.OfferedQPS != 8000 {
		t.Fatalf("OfferedQPS not recorded: %v / %v", calm.OfferedQPS, hot.OfferedQPS)
	}
}

// TestOpenLoopServedIsPoisson is the engine's analytic law. Under a
// constant rate curve every client issues after exponential gaps of mean
// N/λ, drawn at each issue and independent of its latency, so each is a
// Poisson process of rate λ/N and their superposition over the horizon D
// is one of rate λ: Served is exactly Poisson(λ·D) in the model, whatever
// N. A lost or doubled re-issue, a gap drawn at the wrong rate or from a
// shared stream, or a horizon applied off by one event all move it.
func TestOpenLoopServedIsPoisson(t *testing.T) {
	const qps, d = 4000, 5e8
	mean := qps * d * 1e-9
	for _, n := range []int{1, 1_000, 100_000} {
		for seed := uint64(1); seed <= 3; seed++ {
			fs := RunScenario(testCluster(0), Scenario{
				Clients: n, VocabSize: 400, Skew: 1.1, Seed: seed,
				Arrival: &RateCurve{BaseQPS: qps}, DurationNS: d,
			})
			if dev := math.Abs(float64(fs.Served) - mean); dev > 4*math.Sqrt(mean) {
				t.Errorf("%d clients, seed %d: served %d, want %g ± %.0f (4σ of Poisson)", n, seed, fs.Served, mean, 4*math.Sqrt(mean))
			}
		}
	}
}

// TestOpenLoopStateIsPerArrival pins the open loop's memory law: state is
// kept per client that arrives inside the horizon — a 16-byte event and a
// 16-byte stream — and nothing per idle client. A million clients whose
// horizon admits about 1 % of them (≈ 10 000 arrivals, ≈ 320 KB) must cost
// the run under 2 MiB of allocation; one stream per client would be 16 MB.
func TestOpenLoopStateIsPerArrival(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 16 {
		t.Fatalf("event is %d bytes, want 16", size)
	}
	const clients, qps = 1_000_000, 10_000
	c := testCluster(0)
	sc := Scenario{
		Clients: clients, VocabSize: 400, Skew: 1.1, Seed: 5,
		Arrival:    &RateCurve{BaseQPS: qps},
		DurationNS: 0.01 * clients / qps * 1e9,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fs := RunScenario(c, sc)
	runtime.ReadMemStats(&after)
	if fs.Served < 9_000 || fs.Served > 11_000 {
		t.Fatalf("served %d queries, want about 1 %% of %d clients", fs.Served, clients)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Fatalf("RunScenario allocated %d B for %d clients, %d served: want < 2 MiB, nothing per idle client",
			alloc, clients, fs.Served)
	}
}

// TestFlushCacheColdRestart checks both the direct API and the scenario
// event: a flush makes a previously cached query miss, and a flush-heavy
// timeline serves fewer cache hits than the same run without it.
func TestFlushCacheColdRestart(t *testing.T) {
	c := testCluster(256)
	terms := []uint32{1, 2}
	c.Serve(Query{Terms: terms})
	if r := c.Serve(Query{Terms: terms}); !r.FromCache {
		t.Fatal("second serve should hit the cache")
	}
	c.FlushCache()
	if r := c.Serve(Query{Terms: terms}); r.FromCache {
		t.Fatal("serve after FlushCache should miss")
	}

	sc := Scenario{Clients: 50, QueriesPerClient: 40, VocabSize: 100, Skew: 1.2, Seed: 23}
	warm := RunScenario(testCluster(1024), sc)
	sc.Events = []FleetEvent{
		{AtNS: 1e7, FlushCache: true},
		{AtNS: 2e7, FlushCache: true},
		{AtNS: 3e7, FlushCache: true},
	}
	cold := RunScenario(testCluster(1024), sc)
	if cold.CacheHits >= warm.CacheHits {
		t.Fatalf("flush timeline should reduce hits: cold %d >= warm %d", cold.CacheHits, warm.CacheHits)
	}
}

// TestOutageWindowDegrades checks correlated leaf failure: with hedging off
// and no random faults, partial results appear exactly because of the
// outage window, and service recovers after it.
func TestOutageWindowDegrades(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 0
	sc := Scenario{Clients: 20, QueriesPerClient: 50, VocabSize: 200, Skew: 1.1, Seed: 7}
	clean := RunScenario(healthyFaultFree(cfg, 12, 1), sc)
	if clean.PartialResults != 0 {
		t.Fatalf("fault-free run produced %d partials", clean.PartialResults)
	}
	sc.Events = []FleetEvent{{AtNS: 2e7, OutageLeaf: 0, OutageLeaves: 6, OutageDurationNS: 4e7}}
	hit := RunScenario(healthyFaultFree(cfg, 12, 1), sc)
	if hit.PartialResults == 0 {
		t.Fatal("outage window produced no partial results")
	}
	if hit.PartialResults >= hit.Served {
		t.Fatalf("no recovery after outage: %d partials of %d served", hit.PartialResults, hit.Served)
	}
}

// TestOutageWindowOneNanosecondRecovers is the positive side of the outage
// validation: the shortest legal window does end. (A zero-length window
// used to schedule its recovery before its start and leave the leaves dark
// for the rest of the run; it is now rejected — TestRunScenarioPanics.)
func TestOutageWindowOneNanosecondRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 0
	c := healthyFaultFree(cfg, 12, 1)
	fs := RunScenario(c, Scenario{
		Clients: 20, QueriesPerClient: 50, VocabSize: 200, Skew: 1.1, Seed: 7,
		Events: []FleetEvent{{AtNS: 2e7, OutageLeaf: 0, OutageLeaves: 6, OutageDurationNS: 1}},
	})
	if fs.EventsProcessed != fs.Served+2 {
		t.Fatalf("timeline did not run both outage actions: %+v", fs)
	}
	if fs.PartialResults > 1 {
		t.Fatalf("1 ns outage degraded %d of %d queries", fs.PartialResults, fs.Served)
	}
	if r := c.Serve(Query{Terms: []uint32{1, 2}}); r.Partial || r.LeavesAnswered != 12 {
		t.Fatalf("leaves still down after the window: %+v", r)
	}
}

// TestServeDuringRunLoad is the regression test for the shared in-flight
// counter: Serve calls overlapping a load run on the same cluster used to
// read the driver's standing occupancy and could leave the count negative
// when the driver zeroed it at exit. Occupancy is now an argument of the
// kernel and all serving is serialized, so the counters add up and a later
// lone Serve is charged exactly the idle-tier congestion.
func TestServeDuringRunLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeafCapacity = 2
	c := fixedCluster(cfg, fourFixed([4]float64{1e6, 3e6, 2e6, 2.5e6}))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Serve(Query{Terms: []uint32{uint32(g), uint32(i)}})
			}
		}(g)
	}
	st := RunLoad(c, 8, 100, 500, 1.1, 3)
	wg.Wait()
	if c.Queries != 800+800 || c.Metrics().Queries != 1600 {
		t.Fatalf("queries = %d (metrics %d), want 1600; RunLoad saw %d", c.Queries, c.Metrics().Queries, st.Queries)
	}
	// One query on a capacity-2 tier: rho = 1/2, service times double.
	want := frontendOverheadNS + rootOverheadNS + 2*3e6 + 4*networkHopNS
	if r := c.Serve(Query{Terms: []uint32{1, 2}}); r.LatencyNS != want {
		t.Fatalf("latency after the run = %v, want %v", r.LatencyNS, want)
	}
}

// TestSetLeafDown covers the administrative hook's edges: only
// outage-capable executors accept it, out-of-range leaves are rejected.
func TestSetLeafDown(t *testing.T) {
	c := healthyFaultFree(DefaultConfig(), 12, 1)
	if !c.SetLeafDown(0, true) || !c.SetLeafDown(11, true) {
		t.Fatal("outage-capable leaf rejected SetLeafDown")
	}
	if c.SetLeafDown(-1, true) || c.SetLeafDown(12, true) {
		t.Fatal("out-of-range leaf accepted SetLeafDown")
	}
	plain := testCluster(0)
	if plain.SetLeafDown(0, true) {
		t.Fatal("plain synthetic leaf accepted SetLeafDown")
	}
}

// cacheGet is cacheServer.get into fresh buffers.
func cacheGet(s *cacheServer, tag uint64) ([]uint32, []float32, bool) {
	docs, scores := make([]uint32, 16), make([]float32, 16)
	n, ok := s.get(tag, docs, scores)
	return docs[:n], scores[:n], ok
}

// TestCacheRingEviction covers the FIFO ring across wrap-around: oldest
// entries evict in insertion order and live count never exceeds slots.
func TestCacheRingEviction(t *testing.T) {
	s := newCacheServer(4)
	one := []uint32{1}
	sc := []float32{1}
	for tag := uint64(1); tag <= 4; tag++ {
		s.put(tag, one, sc)
	}
	s.put(5, one, sc) // evicts 1
	s.put(6, one, sc) // evicts 2
	for _, tag := range []uint64{3, 4, 5, 6} {
		if _, _, ok := cacheGet(s, tag); !ok {
			t.Fatalf("tag %d missing after wrap-around", tag)
		}
	}
	for _, tag := range []uint64{1, 2} {
		if _, _, ok := cacheGet(s, tag); ok {
			t.Fatalf("tag %d should have been evicted", tag)
		}
	}
	if s.count != 4 || len(s.data) != 4 {
		t.Fatalf("count=%d len(data)=%d, want 4/4", s.count, len(s.data))
	}
}

// TestCacheRingBoundedUnderChurn is the regression test for the eviction
// leak the ring replaced (`order = order[1:]` grew the backing array
// without bound): sustained churn must leave the ring at its fixed size.
func TestCacheRingBoundedUnderChurn(t *testing.T) {
	s := newCacheServer(8)
	docs := []uint32{1, 2, 3}
	scores := []float32{3, 2, 1}
	for tag := uint64(0); tag < 100000; tag++ {
		s.put(tag, docs, scores)
	}
	if len(s.order) != 8 || cap(s.order) != 8 {
		t.Fatalf("order ring grew: len=%d cap=%d, want 8/8", len(s.order), cap(s.order))
	}
	if s.count != 8 || len(s.data) != 8 {
		t.Fatalf("count=%d len(data)=%d, want 8/8", s.count, len(s.data))
	}
	for tag := uint64(100000 - 8); tag < 100000; tag++ {
		if _, _, ok := cacheGet(s, tag); !ok {
			t.Fatalf("recent tag %d missing", tag)
		}
	}
}

// TestCacheOverwriteKeepsPosition: re-putting a live tag must not consume a
// ring slot or refresh its FIFO position.
func TestCacheOverwriteKeepsPosition(t *testing.T) {
	s := newCacheServer(2)
	s.put(10, []uint32{1}, []float32{1})
	s.put(20, []uint32{2}, []float32{2})
	s.put(10, []uint32{9}, []float32{9}) // overwrite, still the oldest
	if d, _, ok := cacheGet(s, 10); !ok || d[0] != 9 {
		t.Fatalf("overwrite not visible: %v %v", d, ok)
	}
	s.put(30, []uint32{3}, []float32{3}) // evicts 10, the oldest
	if _, _, ok := cacheGet(s, 10); ok {
		t.Fatal("overwritten tag should still evict first")
	}
	if _, _, ok := cacheGet(s, 20); !ok {
		t.Fatal("tag 20 evicted out of order")
	}
	if s.count != 2 || len(s.data) != 2 {
		t.Fatalf("count=%d len(data)=%d, want 2/2", s.count, len(s.data))
	}
}

// TestCacheFlush: flush empties the tier in place and it keeps working.
func TestCacheFlush(t *testing.T) {
	s := newCacheServer(4)
	for tag := uint64(1); tag <= 4; tag++ {
		s.put(tag, []uint32{uint32(tag)}, []float32{1})
	}
	s.flush()
	if s.count != 0 || len(s.data) != 0 {
		t.Fatalf("flush left count=%d len(data)=%d", s.count, len(s.data))
	}
	if _, _, ok := cacheGet(s, 2); ok {
		t.Fatal("entry survived flush")
	}
	s.put(7, []uint32{7}, []float32{7})
	if d, _, ok := cacheGet(s, 7); !ok || d[0] != 7 {
		t.Fatal("cache unusable after flush")
	}
}

// TestOpenLoopInfiniteHorizonEndsOnBudget is the positive side of the
// horizon validation: with a budget, an infinite horizon is legal and the
// run ends once every client has spent it.
func TestOpenLoopInfiniteHorizonEndsOnBudget(t *testing.T) {
	fs := RunScenario(testCluster(0), Scenario{
		Clients: 50, QueriesPerClient: 3, VocabSize: 100, Skew: 1.1, Seed: 4,
		Arrival: &RateCurve{BaseQPS: 1000}, DurationNS: math.Inf(1),
	})
	if fs.Served != 150 {
		t.Fatalf("served %d queries, want 50 clients × 3", fs.Served)
	}
}

// TestRunScenarioPanics pins the validation contract.
func TestRunScenarioPanics(t *testing.T) {
	closed := func(ev FleetEvent) Scenario {
		return Scenario{Clients: 1, VocabSize: 10, Skew: 1.1, QueriesPerClient: 1, Events: []FleetEvent{ev}}
	}
	inf, nan := math.Inf(1), math.NaN()
	open := func(rc RateCurve, durationNS float64, budget int) Scenario {
		return Scenario{Clients: 4, VocabSize: 10, Skew: 1.1, QueriesPerClient: budget, Arrival: &rc, DurationNS: durationNS}
	}
	tooMany := math.MaxInt32
	tooMany++ // wraps negative where int is 32 bits, which is rejected too
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"zero clients", Scenario{VocabSize: 10, Skew: 1.1, QueriesPerClient: 1}},
		// Rejected before any per-client array is sized: 2^31 clients would
		// otherwise be a 32 GiB allocation.
		{"more clients than int32 ids", Scenario{Clients: tooMany, VocabSize: 10, Skew: 1.1, QueriesPerClient: 1}},
		{"zero vocab", Scenario{Clients: 1, Skew: 1.1, QueriesPerClient: 1}},
		{"zero skew", Scenario{Clients: 1, VocabSize: 10, QueriesPerClient: 1}},
		{"closed no budget", Scenario{Clients: 1, VocabSize: 10, Skew: 1.1}},
		{"open no horizon", Scenario{Clients: 1, VocabSize: 10, Skew: 1.1, Arrival: &RateCurve{BaseQPS: 10}}},
		{"open no rate", Scenario{Clients: 1, VocabSize: 10, Skew: 1.1, Arrival: &RateCurve{}, DurationNS: 1e9}},
		{"outage without duration", closed(FleetEvent{AtNS: 1e6, OutageLeaves: 2})},
		{"outage with negative duration", closed(FleetEvent{AtNS: 1e6, OutageLeaves: 2, OutageDurationNS: -1})},
		{"outage with NaN duration", closed(FleetEvent{AtNS: 1e6, OutageLeaves: 2, OutageDurationNS: math.NaN()})},
		{"outage past the last leaf", closed(FleetEvent{AtNS: 1e6, OutageLeaf: 11, OutageLeaves: 2, OutageDurationNS: 1e6})},
		{"outage before the first leaf", closed(FleetEvent{AtNS: 1e6, OutageLeaf: -1, OutageLeaves: 2, OutageDurationNS: 1e6})},
		{"negative outage width", closed(FleetEvent{AtNS: 1e6, OutageLeaves: -2, OutageDurationNS: 1e6})},
		{"NaN event time", closed(FleetEvent{AtNS: math.NaN(), FlushCache: true})},
		{"infinite event time", closed(FleetEvent{AtNS: math.Inf(1), FlushCache: true})},
		// Zero interarrivals: virtual time would stop and the run never end.
		{"infinite base rate", open(RateCurve{BaseQPS: inf}, 1e9, 0)},
		{"NaN base rate", open(RateCurve{BaseQPS: nan}, 1e9, 0)},
		{"infinite diurnal amplitude", open(RateCurve{BaseQPS: 10, DiurnalAmplitude: inf, DiurnalPeriodNS: 1e9}, 1e9, 0)},
		{"NaN diurnal amplitude", open(RateCurve{BaseQPS: 10, DiurnalAmplitude: nan, DiurnalPeriodNS: 1e9}, 1e9, 0)},
		{"infinite diurnal period", open(RateCurve{BaseQPS: 10, DiurnalAmplitude: 0.5, DiurnalPeriodNS: inf}, 1e9, 0)},
		{"NaN diurnal period", open(RateCurve{BaseQPS: 10, DiurnalAmplitude: 0.5, DiurnalPeriodNS: nan}, 1e9, 0)},
		{"NaN burst start", open(RateCurve{BaseQPS: 10, Bursts: []Burst{{StartNS: nan, EndNS: 1e9, Factor: 2}}}, 1e9, 0)},
		{"infinite burst end", open(RateCurve{BaseQPS: 10, Bursts: []Burst{{StartNS: 0, EndNS: inf, Factor: 2}}}, 1e9, 0)},
		{"infinite burst factor", open(RateCurve{BaseQPS: 10, Bursts: []Burst{{StartNS: 0, EndNS: 1e9, Factor: inf}}}, 1e9, 0)},
		{"NaN horizon", open(RateCurve{BaseQPS: 10}, nan, 1)},
		// Without a budget an infinite horizon never ends the run.
		{"infinite horizon without budget", open(RateCurve{BaseQPS: 10}, inf, 0)},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: RunScenario did not panic", tc.name)
				}
				// An explicit rejection, not a runtime error on the way.
				if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "serving: ") {
					t.Fatalf("%s: panicked with %v, not a validation message", tc.name, r)
				}
				if tc.sc.Clients == tooMany && !strings.Contains(fmt.Sprint(r), "int32 client ids") {
					t.Fatalf("%s: panicked with %q, not the client-limit message", tc.name, r)
				}
			}()
			RunScenario(testCluster(0), tc.sc)
		}()
	}
}
