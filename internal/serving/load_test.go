package serving

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"slices"
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
// everyone is).
func TestRunScenarioGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 256
	cfg.LeafDeadlineNS = 40e6
	cfg.HedgeDelayNS = 5e6
	cfg.LeafCapacity = 400
	const d = 5e8
	cases := []struct {
		name    string
		clients int
		qps     float64
		want    string
	}{
		{"short-horizon", 5000, 2000, "f5461b64c15aa5b61d810a9217e68ee6c4d143caf7f47c37a5ca178f1061e7bf"},
		{"long-horizon", 200, 4000, "56d72271bf8f3c12cc99b02adfc274106bfbdcd8377def7a0e7bff6f1721376d"},
	}
	for _, tc := range cases {
		c := faultyCluster(cfg, 12, 3)
		fs := RunScenario(c, Scenario{
			Clients:   tc.clients,
			VocabSize: 400,
			Skew:      1.1,
			Seed:      17,
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

// timelineStep applies one timeline action to c as a drive would.
func timelineStep(c *Cluster, a action) {
	c.driveMu.Lock()
	defer c.driveMu.Unlock()
	c.applyAction(a)
}

// TestFlushCacheColdRestart checks the timeline's flush, as one step and
// in a scenario: a flush makes a previously cached query miss, and a
// flush-heavy timeline serves fewer cache hits than the same day without
// it.
func TestFlushCacheColdRestart(t *testing.T) {
	c := testCluster(256)
	terms := []uint32{1, 2}
	c.Serve(Query{Terms: terms})
	if r := c.Serve(Query{Terms: terms}); !r.FromCache {
		t.Fatal("second serve should hit the cache")
	}
	timelineStep(c, action{kind: actFlush})
	if r := c.Serve(Query{Terms: terms}); r.FromCache {
		t.Fatal("serve after a flush should miss")
	}

	sc := Scenario{
		Clients: 50, VocabSize: 100, Skew: 1.2, Seed: 23,
		Arrival: &RateCurve{BaseQPS: 4000}, DurationNS: 4e8,
	}
	warm := RunScenario(testCluster(1024), sc)
	sc.Events = []FleetEvent{
		{AtNS: 1e8, FlushCache: true},
		{AtNS: 2e8, FlushCache: true},
		{AtNS: 3e8, FlushCache: true},
	}
	cold := RunScenario(testCluster(1024), sc)
	if cold.CacheHits >= warm.CacheHits {
		t.Fatalf("flush timeline should reduce hits: cold %d >= warm %d", cold.CacheHits, warm.CacheHits)
	}
}

// outageDay is the open day of the outage tests: 20 clients offering
// 2 000 QPS for 0.2 virtual seconds.
func outageDay(events ...FleetEvent) Scenario {
	return Scenario{
		Clients: 20, VocabSize: 200, Skew: 1.1, Seed: 7,
		Arrival: &RateCurve{BaseQPS: 2000}, DurationNS: 2e8,
		Events: events,
	}
}

// TestOutageWindowDegrades checks correlated leaf failure: with hedging off
// and no random faults, partial results appear exactly because of the
// outage window, and service recovers after it.
func TestOutageWindowDegrades(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 0
	clean := RunScenario(healthyFaultFree(cfg, 12, 1), outageDay())
	if clean.PartialResults != 0 {
		t.Fatalf("fault-free run produced %d partials", clean.PartialResults)
	}
	hit := RunScenario(healthyFaultFree(cfg, 12, 1), outageDay(FleetEvent{AtNS: 5e7, OutageLeaf: 0, OutageLeaves: 6, OutageDurationNS: 5e7}))
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
// for the rest of the run; it is now rejected — TestRunScenarioPanics.) No
// issue falls inside the window, so the day must equal the same day without
// it but for the two timeline actions counted as events.
func TestOutageWindowOneNanosecondRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 0
	without := RunScenario(healthyFaultFree(cfg, 12, 1), outageDay())
	c := healthyFaultFree(cfg, 12, 1)
	fs := RunScenario(c, outageDay(FleetEvent{AtNS: 5e7, OutageLeaf: 0, OutageLeaves: 6, OutageDurationNS: 1}))
	if fs.EventsProcessed != without.EventsProcessed+2 {
		t.Fatalf("timeline did not run both outage actions: %d events, %d without the window", fs.EventsProcessed, without.EventsProcessed)
	}
	if fs.EventsProcessed = without.EventsProcessed; fs != without {
		t.Fatalf("1 ns outage moved the day:\nwith    %+v\nwithout %+v", fs, without)
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
	if st.Queries < 800 || c.Metrics().Queries != 800+800 {
		t.Fatalf("metrics queries = %d, want 1600; RunLoad saw %d", c.Metrics().Queries, st.Queries)
	}
	// One query on a capacity-2 tier: rho = 1/2, service times double.
	want := frontendOverheadNS + rootOverheadNS + 2*3e6 + 4*networkHopNS
	if r := c.Serve(Query{Terms: []uint32{1, 2}}); r.LatencyNS != want {
		t.Fatalf("latency after the run = %v, want %v", r.LatencyNS, want)
	}
}

// TestSetLeafDown covers the timeline's outage step: a down action drops
// exactly the leaves of its range from the merge, the up action brings them
// back, and leaves whose executors cannot be marked down keep answering.
func TestSetLeafDown(t *testing.T) {
	q := Query{Terms: []uint32{1, 2}}
	c := healthyFaultFree(DefaultConfig(), 12, 1)
	timelineStep(c, action{kind: actDown, leaf: 9, count: 3})
	if r := c.Serve(q); !r.Partial || r.LeavesAnswered != 9 {
		t.Fatalf("leaves 9–11 down: %d answered (partial %v), want 9", r.LeavesAnswered, r.Partial)
	}
	timelineStep(c, action{kind: actUp, leaf: 9, count: 3})
	if r := c.Serve(q); r.Partial || r.LeavesAnswered != 12 {
		t.Fatalf("leaves 9–11 back up: %d answered (partial %v), want 12", r.LeavesAnswered, r.Partial)
	}
	plain := testCluster(0)
	timelineStep(plain, action{kind: actDown, count: 12})
	if r := plain.Serve(q); r.Partial || r.LeavesAnswered != 12 {
		t.Fatalf("plain synthetic leaves went down: %d answered (partial %v)", r.LeavesAnswered, r.Partial)
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
	s := newCacheServer(4, 1)
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
	if len(s.index) != 4 {
		t.Fatalf("%d live tags, want 4", len(s.index))
	}
}

// TestCacheRingBoundedUnderChurn is the slab's size law, and the
// regression test for the eviction leak an earlier slice queue had
// (`order = order[1:]` grew its backing array without bound): under
// sustained churn the index never holds more than slots tags, and the slab
// is the one built with the tier, never regrown.
func TestCacheRingBoundedUnderChurn(t *testing.T) {
	s := newCacheServer(8, 3)
	docs0, scores0 := &s.docs[0], &s.scores[0]
	docs := []uint32{1, 2, 3}
	scores := []float32{3, 2, 1}
	for tag := uint64(0); tag < 100000; tag++ {
		s.put(tag, docs, scores)
		if len(s.index) > 8 {
			t.Fatalf("after put %d the index holds %d tags, want at most 8", tag, len(s.index))
		}
	}
	if len(s.docs) != 24 || cap(s.docs) != 24 || &s.docs[0] != docs0 ||
		len(s.scores) != 24 || cap(s.scores) != 24 || &s.scores[0] != scores0 ||
		len(s.lens) != 8 || len(s.tags) != 8 {
		t.Fatalf("slab regrown: docs %d/%d, scores %d/%d, lens %d, tags %d; want 24/24, 24/24, 8, 8",
			len(s.docs), cap(s.docs), len(s.scores), cap(s.scores), len(s.lens), len(s.tags))
	}
	for tag := uint64(100000 - 8); tag < 100000; tag++ {
		if _, _, ok := cacheGet(s, tag); !ok {
			t.Fatalf("recent tag %d missing", tag)
		}
	}
}

// TestCacheFlush: flush empties the tier in place and it keeps working.
// It also rewinds the cursor, so a flushed slab refills from slot 0 as a
// new one does; FIFO order alone cannot show that (refilling from any slot
// evicts in the same order), so it is checked on the cursor itself, after
// a partial fill that left it elsewhere.
func TestCacheFlush(t *testing.T) {
	s := newCacheServer(4, 1)
	for tag := uint64(1); tag <= 3; tag++ {
		s.put(tag, []uint32{uint32(tag)}, []float32{1})
	}
	s.flush()
	if len(s.index) != 0 || s.next != 0 {
		t.Fatalf("flush left %d live tags and the cursor at slot %d", len(s.index), s.next)
	}
	if _, _, ok := cacheGet(s, 2); ok {
		t.Fatal("entry survived flush")
	}
	s.put(7, []uint32{7}, []float32{7})
	if d, _, ok := cacheGet(s, 7); !ok || d[0] != 7 {
		t.Fatal("cache unusable after flush")
	}
}

// TestCacheTierMatchesFIFO is the cache tier's oracle: a cacheServer and a
// naive FIFO — a map of copied slices and a slice queue of tags, oldest
// first — go through the same seeded sequence of gets, a put after every
// miss (the only put serve makes) and occasional flushes, and every get
// must agree on presence, length, docs and scores. Slot counts run from 1
// to past the active tag set, and entry lengths from 0 to TopK. The put's
// arguments are scribbled over after each put and the get's buffers are
// pre-filled with junk, so an entry that aliases either side is caught.
func TestCacheTierMatchesFIFO(t *testing.T) {
	const topK = 10
	type entry struct {
		docs   []uint32
		scores []float32
	}
	for _, slots := range []int{1, 2, 3, 7, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := stats.NewRNG(seed*7919 + uint64(slots))
			s := newCacheServer(slots, topK)
			ref := map[uint64]entry{}
			var queue []uint64
			docs, scores := make([]uint32, topK), make([]float32, topK)
			pd, ps := make([]uint32, topK), make([]float32, topK)
			for op := 0; op < 5000; op++ {
				if rng.Intn(200) == 0 {
					s.flush()
					clear(ref)
					queue = queue[:0]
					continue
				}
				tag := uint64(rng.Intn(2*slots + 3))
				for i := range docs {
					docs[i], scores[i] = 0xdead, -7
				}
				n, ok := s.get(tag, docs, scores)
				want, hit := ref[tag]
				if ok != hit || n != len(want.docs) ||
					!slices.Equal(docs[:n], want.docs) || !slices.Equal(scores[:n], want.scores) {
					t.Fatalf("%d slots, seed %d, op %d: get(%d) = %v, %v, %v; FIFO %v, %v, %v",
						slots, seed, op, tag, docs[:n], scores[:n], ok, want.docs, want.scores, hit)
				}
				if ok {
					continue
				}
				l := rng.Intn(topK + 1)
				for i := 0; i < l; i++ {
					pd[i], ps[i] = uint32(rng.Intn(1_000_000)), float32(rng.Intn(10_000))/100
				}
				s.put(tag, pd[:l], ps[:l])
				if len(queue) == slots {
					delete(ref, queue[0])
					queue = queue[1:]
				}
				ref[tag] = entry{slices.Clone(pd[:l]), slices.Clone(ps[:l])}
				queue = append(queue, tag)
				for i := range pd {
					pd[i], ps[i] = 0xbeef, -9
				}
			}
		}
	}
}

// TestRunScenarioPanics pins the validation contract.
func TestRunScenarioPanics(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	open := func(rc RateCurve, durationNS float64) Scenario {
		return Scenario{Clients: 4, VocabSize: 10, Skew: 1.1, Arrival: &rc, DurationNS: durationNS}
	}
	withEvent := func(ev FleetEvent) Scenario {
		sc := open(RateCurve{BaseQPS: 10}, 1e9)
		sc.Events = []FleetEvent{ev}
		return sc
	}
	population := func(clients, vocab int, skew float64) Scenario {
		sc := open(RateCurve{BaseQPS: 10}, 1e9)
		sc.Clients, sc.VocabSize, sc.Skew = clients, vocab, skew
		return sc
	}
	tooMany := math.MaxInt32
	tooMany++ // wraps negative where int is 32 bits, which is rejected too
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"zero clients", population(0, 10, 1.1)},
		// Rejected before any per-client array is sized: 2^31 clients would
		// otherwise be a 32 GiB allocation.
		{"more clients than int32 ids", population(tooMany, 10, 1.1)},
		{"zero vocab", population(1, 0, 1.1)},
		{"zero skew", population(1, 10, 0)},
		// NaN passes a Skew <= 0 test, and its draws never end.
		{"NaN skew", population(1, 10, nan)},
		{"nil arrival", Scenario{Clients: 1, VocabSize: 10, Skew: 1.1, DurationNS: 1e9}},
		{"no horizon", open(RateCurve{BaseQPS: 10}, 0)},
		{"NaN horizon", open(RateCurve{BaseQPS: 10}, nan)},
		// An infinite horizon never ends the run.
		{"infinite horizon", open(RateCurve{BaseQPS: 10}, inf)},
		{"no rate", open(RateCurve{}, 1e9)},
		{"outage without duration", withEvent(FleetEvent{AtNS: 1e6, OutageLeaves: 2})},
		{"outage with negative duration", withEvent(FleetEvent{AtNS: 1e6, OutageLeaves: 2, OutageDurationNS: -1})},
		{"outage with NaN duration", withEvent(FleetEvent{AtNS: 1e6, OutageLeaves: 2, OutageDurationNS: nan})},
		{"outage past the last leaf", withEvent(FleetEvent{AtNS: 1e6, OutageLeaf: 11, OutageLeaves: 2, OutageDurationNS: 1e6})},
		{"outage before the first leaf", withEvent(FleetEvent{AtNS: 1e6, OutageLeaf: -1, OutageLeaves: 2, OutageDurationNS: 1e6})},
		{"negative outage width", withEvent(FleetEvent{AtNS: 1e6, OutageLeaves: -2, OutageDurationNS: 1e6})},
		{"NaN event time", withEvent(FleetEvent{AtNS: nan, FlushCache: true})},
		{"infinite event time", withEvent(FleetEvent{AtNS: inf, FlushCache: true})},
		// Zero interarrivals: virtual time would stop and the run never end.
		{"infinite base rate", open(RateCurve{BaseQPS: inf}, 1e9)},
		{"NaN base rate", open(RateCurve{BaseQPS: nan}, 1e9)},
		{"infinite diurnal amplitude", open(RateCurve{BaseQPS: 10, DiurnalAmplitude: inf, DiurnalPeriodNS: 1e9}, 1e9)},
		{"NaN diurnal amplitude", open(RateCurve{BaseQPS: 10, DiurnalAmplitude: nan, DiurnalPeriodNS: 1e9}, 1e9)},
		{"infinite diurnal period", open(RateCurve{BaseQPS: 10, DiurnalAmplitude: 0.5, DiurnalPeriodNS: inf}, 1e9)},
		{"NaN diurnal period", open(RateCurve{BaseQPS: 10, DiurnalAmplitude: 0.5, DiurnalPeriodNS: nan}, 1e9)},
		{"NaN burst start", open(RateCurve{BaseQPS: 10, Bursts: []Burst{{StartNS: nan, EndNS: 1e9, Factor: 2}}}, 1e9)},
		{"infinite burst end", open(RateCurve{BaseQPS: 10, Bursts: []Burst{{StartNS: 0, EndNS: inf, Factor: 2}}}, 1e9)},
		{"infinite burst factor", open(RateCurve{BaseQPS: 10, Bursts: []Burst{{StartNS: 0, EndNS: 1e9, Factor: inf}}}, 1e9)},
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
