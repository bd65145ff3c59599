package serving

import (
	"slices"
	"testing"

	"searchmem/internal/memsim"
	"searchmem/internal/search"
)

// fixedExec is a deterministic executor with a constant latency, optionally
// failing every call. Distinct Base values keep per-shard results disjoint.
type fixedExec struct {
	lat  float64
	base uint32
	fail bool
}

func (f *fixedExec) SearchBuf(terms []uint32, docs []uint32, scores []float32) (int, float64, error) {
	if f.fail {
		return 0, f.lat, ErrInjectedFault
	}
	n := copy(docs, []uint32{f.base, f.base + 1})
	copy(scores, []float32{float32(f.base%97) + 2, float32(f.base % 97)})
	return n, f.lat, nil
}

// fixedCluster wires 4 leaves under one parent with the given latencies.
func fixedCluster(cfg Config, execs []Executor) *Cluster {
	cfg.Leaves = len(execs)
	cfg.Fanout = len(execs)
	cfg.CacheSlots = 0
	return NewCluster(cfg, execs)
}

func fourFixed(lats [4]float64) []Executor {
	execs := make([]Executor, 4)
	for i := range execs {
		execs[i] = &fixedExec{lat: lats[i], base: uint32(100 * (i + 1))}
	}
	return execs
}

// TestLatencyModelUnchangedWithoutFaults pins the seed latency formula:
// with deadlines and hedging disabled the fan-out costs the slowest leaf
// plus four network hops and the fixed overheads, exactly as before the
// fault-tolerance rework.
func TestLatencyModelUnchangedWithoutFaults(t *testing.T) {
	cfg := DefaultConfig()
	c := fixedCluster(cfg, fourFixed([4]float64{1e6, 3e6, 2e6, 2.5e6}))
	r := c.Serve(Query{Terms: []uint32{1, 2}})
	want := frontendOverheadNS + rootOverheadNS + 3e6 + 4*networkHopNS
	if r.LatencyNS != want {
		t.Fatalf("latency = %v, want %v", r.LatencyNS, want)
	}
	if r.Partial {
		t.Fatal("healthy serve marked partial")
	}
	if r.LeavesAnswered != 4 {
		t.Fatalf("LeavesAnswered = %d, want 4", r.LeavesAnswered)
	}
}

func TestDeadlineDropsSlowLeaf(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeafDeadlineNS = 5e6 // hedging off: the slow leaf cannot recover
	c := fixedCluster(cfg, fourFixed([4]float64{1e6, 20e6, 2e6, 2.5e6}))
	r := c.Serve(Query{Terms: []uint32{1, 2}})
	if !r.Partial {
		t.Fatal("slow leaf past the deadline did not mark the result partial")
	}
	if r.LeavesAnswered != 3 {
		t.Fatalf("LeavesAnswered = %d, want 3", r.LeavesAnswered)
	}
	// The parent gives up at the deadline, not at the slow leaf's latency.
	want := frontendOverheadNS + rootOverheadNS + cfg.LeafDeadlineNS + 4*networkHopNS
	if r.LatencyNS != want {
		t.Fatalf("latency = %v, want %v", r.LatencyNS, want)
	}
	// The dropped leaf's docs must not appear in the merge.
	for _, d := range r.Docs {
		if src := d % uint32(c.cfg.Leaves); src == 1 {
			t.Fatalf("dropped leaf's doc %d in merge", d)
		}
	}
	m := c.Metrics()
	if m.LeafTimeouts != 1 || m.PartialResults != 1 {
		t.Fatalf("metrics: timeouts=%d partials=%d, want 1/1", m.LeafTimeouts, m.PartialResults)
	}
}

func TestHedgeRecoversSlowLeaf(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeafDeadlineNS = 8e6
	cfg.HedgeDelayNS = 3e6
	c := fixedCluster(cfg, fourFixed([4]float64{1e6, 20e6, 2e6, 2.5e6}))
	r := c.Serve(Query{Terms: []uint32{1, 2}})
	if r.Partial {
		t.Fatal("hedged retry should have recovered the slow leaf")
	}
	if r.LeavesAnswered != 4 {
		t.Fatalf("LeavesAnswered = %d, want 4", r.LeavesAnswered)
	}
	// Slow leaf 1's answer arrives via its sibling (leaf 2, 2 ms) at
	// hedge-delay + sibling latency = 5 ms, which bounds the fan-out.
	want := frontendOverheadNS + rootOverheadNS + (3e6 + 2e6) + 4*networkHopNS
	if r.LatencyNS != want {
		t.Fatalf("latency = %v, want %v", r.LatencyNS, want)
	}
	m := c.Metrics()
	if m.HedgesIssued != 1 || m.HedgeWins != 1 {
		t.Fatalf("metrics: hedges=%d wins=%d, want 1/1", m.HedgesIssued, m.HedgeWins)
	}
}

func TestFailedLeafRetriesImmediately(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeafDeadlineNS = 8e6
	cfg.HedgeDelayNS = 3e6
	execs := fourFixed([4]float64{1e6, 1e6, 2e6, 2.5e6})
	execs[1].(*fixedExec).fail = true // fails fast at 1 ms, before the hedge delay
	c := fixedCluster(cfg, execs)
	r := c.Serve(Query{Terms: []uint32{1, 2}})
	if r.Partial || r.LeavesAnswered != 4 {
		t.Fatalf("failure not recovered: partial=%v answered=%d", r.Partial, r.LeavesAnswered)
	}
	// Retry issued at the failure (1 ms), answered by leaf 2 in 2 ms: the
	// recovered answer at 3 ms dominates the healthy leaves.
	want := frontendOverheadNS + rootOverheadNS + 3e6 + 4*networkHopNS
	if r.LatencyNS != want {
		t.Fatalf("latency = %v, want %v", r.LatencyNS, want)
	}
	m := c.Metrics()
	if m.LeafFailures != 1 || m.HedgesIssued != 1 || m.HedgeWins != 1 {
		t.Fatalf("metrics: failures=%d hedges=%d wins=%d", m.LeafFailures, m.HedgesIssued, m.HedgeWins)
	}
}

func TestFailedLeafWithoutHedgingDegrades(t *testing.T) {
	cfg := DefaultConfig()
	execs := fourFixed([4]float64{1e6, 1e6, 2e6, 2.5e6})
	execs[0].(*fixedExec).fail = true
	c := fixedCluster(cfg, execs)
	r := c.Serve(Query{Terms: []uint32{3}})
	if !r.Partial || r.LeavesAnswered != 3 {
		t.Fatalf("partial=%v answered=%d, want true/3", r.Partial, r.LeavesAnswered)
	}
	if c.Metrics().LeafFailures != 1 {
		t.Fatal("failure not counted")
	}
}

func TestPartialResultsNotCached(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Leaves, cfg.Fanout = 4, 4
	execs := fourFixed([4]float64{1e6, 1e6, 2e6, 2.5e6})
	execs[0].(*fixedExec).fail = true
	c := NewCluster(cfg, execs)
	q := Query{Terms: []uint32{5, 6}}
	first := c.Serve(q)
	second := c.Serve(q)
	if !first.Partial || !second.Partial {
		t.Fatal("expected partial results")
	}
	if second.FromCache {
		t.Fatal("degraded result was cached and replayed")
	}
}

// TestCacheEntriesImmuneToCallerMutation is the regression test for the
// cache-aliasing bug: callers own Result slices and may mutate them; the
// cached entry (and later hits) must not see those writes.
func TestCacheEntriesImmuneToCallerMutation(t *testing.T) {
	c := testCluster(1024)
	q := Query{Terms: []uint32{21, 22}}
	first := c.Serve(q)
	want := append([]uint32(nil), first.Docs...)
	for i := range first.Docs {
		first.Docs[i] = 4_000_000 + uint32(i) // caller scribbles over its result
		first.Scores[i] = -1
	}
	second := c.Serve(q)
	if !second.FromCache {
		t.Fatal("repeat query missed cache")
	}
	for i := range want {
		if second.Docs[i] != want[i] {
			t.Fatalf("cache corrupted by caller mutation: doc[%d]=%d, want %d", i, second.Docs[i], want[i])
		}
		if second.Scores[i] < 0 {
			t.Fatalf("cache scores corrupted: %v", second.Scores)
		}
	}
	// Mutating a cache hit must not corrupt later hits either.
	second.Docs[0] = 9_999_999
	third := c.Serve(q)
	if third.Docs[0] != want[0] {
		t.Fatalf("cache corrupted by hit mutation: %d, want %d", third.Docs[0], want[0])
	}
	// Nor may the event loop's own hit result, which stays in serve's
	// scratch, or the next query, which overwrites that scratch.
	c.driveMu.Lock()
	c.serve(q.Terms, 0)
	if !c.scratch.fromCache || c.scratch.n == 0 {
		t.Fatalf("serve left no cache hit in the scratch: fromCache %v, n %d", c.scratch.fromCache, c.scratch.n)
	}
	c.scratch.docs[0] = 9_999_999
	c.serve([]uint32{23, 24}, 0)
	c.driveMu.Unlock()
	if fourth := c.Serve(q); !fourth.FromCache || !slices.Equal(fourth.Docs, want) {
		t.Fatalf("cache corrupted through serve's scratch: %v, want %v", fourth.Docs, want)
	}
}

// TestEngineLeafScoresStableAcrossRepeats is the regression test for the
// fabricated-score bug: repeated queries used to hit the engine's query
// cache, which stores ids only, and the executor fabricated rank-order
// scores (k..1) that merged wrongly against real BM25 scores from sibling
// shards. With the engine cache bypassed in tree mode, a repeat of the same
// query must reproduce the identical merged docs and scores.
func TestEngineLeafScoresStableAcrossRepeats(t *testing.T) {
	cfg := search.DefaultConfig()
	cfg.Corpus.NumDocs = 2000
	cfg.Corpus.VocabSize = 3000
	cfg.Corpus.AvgDocLen = 30
	space := memsim.NewSpace(nil)
	eng, err := search.Build(cfg, space, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := &EngineExecutor{Session: eng.NewSession(0, nil)}

	cc := DefaultConfig()
	cc.Leaves, cc.Fanout = 2, 2
	cc.TopK = 30 // large enough that every candidate survives the merge
	cc.CacheSlots = 0
	// The sibling shard returns two fixed docs, so every engine doc (and
	// its real BM25 score) is guaranteed a slot in the merged top-k.
	cluster := NewCluster(cc, []Executor{exec, &fixedExec{lat: 2e6, base: 50}})

	q := Query{Terms: []uint32{1, 2}}
	first := cluster.Serve(q)
	second := cluster.Serve(q)
	if len(first.Docs) != len(second.Docs) {
		t.Fatalf("result sizes differ: %d vs %d", len(first.Docs), len(second.Docs))
	}
	for i := range first.Docs {
		if first.Docs[i] != second.Docs[i] || first.Scores[i] != second.Scores[i] {
			t.Fatalf("merge unstable at %d: (%d, %v) vs (%d, %v)",
				i, first.Docs[i], first.Scores[i], second.Docs[i], second.Scores[i])
		}
	}
}

// TestEngineExecutorScoresAreReal drives the executor directly: every call
// must return real scores, never rank-order placeholders from a cache hit.
func TestEngineExecutorScoresAreReal(t *testing.T) {
	cfg := search.DefaultConfig()
	cfg.Corpus.NumDocs = 2000
	cfg.Corpus.VocabSize = 3000
	cfg.Corpus.AvgDocLen = 30
	space := memsim.NewSpace(nil)
	eng, err := search.Build(cfg, space, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := &EngineExecutor{Session: eng.NewSession(0, nil)}

	s1, s2 := make([]float32, 16), make([]float32, 16)
	docs := make([]uint32, 16)
	n1, _, _ := exec.SearchBuf([]uint32{1, 2}, docs, s1)
	n2, _, _ := exec.SearchBuf([]uint32{1, 2}, docs, s2)
	if n1 == 0 || n1 != n2 {
		t.Fatalf("score lengths: %d vs %d", n1, n2)
	}
	s1, s2 = s1[:n1], s2[:n2]
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("scores changed between identical calls: %v vs %v", s1, s2)
		}
	}
}

func faultyCluster(cfg Config, n int, seed uint64) *Cluster {
	execs := make([]Executor, n)
	for i := range execs {
		execs[i] = &FaultyExecutor{
			Inner:    NewSyntheticExecutor(uint32(i), cfg.TopK),
			SlowProb: 0.10, SlowFactor: 8,
			FailProb: 0.02,
			FlapProb: 0.01,
			Seed:     seed + uint64(i)*7919,
		}
	}
	cfg.Leaves = n
	return NewCluster(cfg, execs)
}

// TestRaceFaultInjectedLoad runs a closed-loop load with fault injection,
// deadlines and hedging all enabled; under -race it checks the kernel's
// locking (client concurrency is modeled in virtual time; TestConcurrentServe
// and TestServeDuringRunLoad cover truly concurrent callers).
func TestRaceFaultInjectedLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeafDeadlineNS = 8e6
	cfg.HedgeDelayNS = 4e6
	cfg.LeafCapacity = 64
	c := faultyCluster(cfg, 12, 3)
	st := RunLoad(c, 8, 60, 500, 1.1, 3)
	if st.Queries != 480 {
		t.Fatalf("queries = %d", st.Queries)
	}
	m := c.Metrics()
	if m.Queries != 480 {
		t.Fatalf("metrics queries = %d", m.Queries)
	}
	if m.LeafService.Count == 0 || m.Merge.Count == 0 {
		t.Fatal("stage metrics not recorded")
	}
}

// TestRunLoadDeterministic asserts identical LoadStats across two runs with
// the same seed, including the exact fault and hedge counters, for a
// 10 000-client closed loop that stresses the event heap. Multi-client
// determinism is the regression pin for the virtual-completion-order event
// loop: the old goroutine-per-client driver drew per-executor jitter RNGs in
// scheduling order, so hedge counts drifted run to run under -race. The 1-
// and 8-client loops are pinned by TestRunLoadGolden's digests.
func TestRunLoadDeterministic(t *testing.T) {
	run := func() (LoadStats, Metrics) {
		cfg := DefaultConfig()
		cfg.LeafDeadlineNS = 8e6
		cfg.HedgeDelayNS = 4e6
		cl := faultyCluster(cfg, 12, 11)
		st := RunLoad(cl, 10000, 2, 400, 1.1, 9)
		return st, cl.Metrics()
	}
	a, am := run()
	b, bm := run()
	if a != b {
		t.Fatalf("LoadStats differ across identical runs:\n%+v\n%+v", a, b)
	}
	if am.HedgesIssued != bm.HedgesIssued || am.LeafTimeouts != bm.LeafTimeouts || am.LeafFailures != bm.LeafFailures {
		t.Fatalf("fault counters differ across identical runs:\n%+v\n%+v", am, bm)
	}
	if a.Queries != 20000 || a.PartialResults == 0 {
		t.Fatalf("Queries = %d with %d partial results, want 20000 with some partial", a.Queries, a.PartialResults)
	}
}

// TestDeadlineBoundsTailUnderSlowInjection checks the degradation contract:
// with a 10% slow-leaf injection, the load completes, partial results are
// reported, and P99 stays bounded by the deadline plus the fixed overheads
// (hedging cannot push the fan-out past the deadline).
func TestDeadlineBoundsTailUnderSlowInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 0
	cfg.LeafDeadlineNS = 6e6
	cfg.HedgeDelayNS = 3e6
	execs := make([]Executor, 12)
	for i := range execs {
		execs[i] = &FaultyExecutor{
			Inner:    NewSyntheticExecutor(uint32(i), cfg.TopK),
			SlowProb: 0.10, SlowFactor: 16,
			Seed: 100 + uint64(i)*7919,
		}
	}
	c := NewCluster(cfg, execs)
	st := RunLoad(c, 4, 200, 300, 1.1, 17)
	if st.Queries != 800 {
		t.Fatalf("queries = %d", st.Queries)
	}
	if st.PartialResults == 0 {
		t.Fatal("no partial results under 10% slow injection")
	}
	// Histogram quantiles sit at bucket midpoints (<= ~6% high for 8
	// sub-buckets), hence the tolerance.
	bound := frontendOverheadNS + rootOverheadNS + cfg.LeafDeadlineNS + 4*networkHopNS
	if st.P99NS > bound*1.07 {
		t.Fatalf("P99 %.2f ms exceeds deadline-implied bound %.2f ms", st.P99NS/1e6, bound/1e6)
	}
	m := c.Metrics()
	if m.HedgesIssued == 0 {
		t.Fatal("slow injection issued no hedges")
	}
	if m.LeafTimeouts == 0 {
		t.Fatal("16x stragglers should overrun the deadline sometimes")
	}
}

// TestMetricsSnapshot sanity-checks the per-stage registry on a healthy
// cached load.
func TestMetricsSnapshot(t *testing.T) {
	c := testCluster(4096)
	st := RunLoad(c, 2, 100, 200, 1.1, 5)
	m := c.Metrics()
	if m.Queries != 200 || m.Queries != st.Queries {
		t.Fatalf("metrics queries = %d, cluster %d", m.Queries, st.Queries)
	}
	if m.CacheHits != st.CacheHits {
		t.Fatalf("metrics cache hits = %d, cluster %d", m.CacheHits, st.CacheHits)
	}
	if m.Frontend.Count != 200 {
		t.Fatalf("frontend count = %d", m.Frontend.Count)
	}
	if m.CacheProbe.Count != 200 { // every query probes the cache tier
		t.Fatalf("probe count = %d", m.CacheProbe.Count)
	}
	// Each non-cached query costs one attempt per leaf (no hedging here).
	wantAttempts := (m.Queries - m.CacheHits) * int64(c.cfg.Leaves)
	if m.LeafService.Count != wantAttempts {
		t.Fatalf("leaf-service count = %d, want %d", m.LeafService.Count, wantAttempts)
	}
	if m.Merge.Count != m.Queries-m.CacheHits {
		t.Fatalf("merge count = %d", m.Merge.Count)
	}
	if m.LeafService.P50NS <= 0 || m.LeafService.P99NS < m.LeafService.P50NS {
		t.Fatalf("leaf-service quantiles: %+v", m.LeafService)
	}
	if len(m.Stages()) != 4 {
		t.Fatal("expected 4 stages")
	}
	for _, s := range m.Stages() {
		if s.String() == "" {
			t.Fatal("empty stage string")
		}
	}
}

// TestFaultyExecutorDeterministic: outcomes depend only on (Seed, terms),
// never on call order, which is what keeps concurrent simulations
// reproducible.
func TestFaultyExecutorDeterministic(t *testing.T) {
	mk := func() *FaultyExecutor {
		return &FaultyExecutor{
			Inner:    &fixedExec{lat: 1e6, base: 7},
			SlowProb: 0.3, FailProb: 0.2, FlapProb: 0.1,
			Seed: 42,
		}
	}
	a, b := mk(), mk()
	docs, scores := make([]uint32, 2), make([]float32, 2)
	// Drain a's stream in a different order than b's: results must match
	// per-terms regardless.
	terms := [][]uint32{{1}, {2}, {3}, {4}, {5}}
	type outcome struct {
		lat float64
		err bool
	}
	got := map[int]outcome{}
	for i, tm := range terms {
		_, lat, err := a.SearchBuf(tm, docs, scores)
		got[i] = outcome{lat, err != nil}
	}
	for i := len(terms) - 1; i >= 0; i-- {
		_, lat, err := b.SearchBuf(terms[i], docs, scores)
		if o := got[i]; o.lat != lat || o.err != (err != nil) {
			t.Fatalf("terms %v order-dependent: (%v,%v) vs (%v,%v)", terms[i], o.lat, o.err, lat, err != nil)
		}
	}
	// Faults actually fire at these probabilities over a modest stream.
	var fails int
	for i := 0; i < 200; i++ {
		if _, _, err := a.SearchBuf([]uint32{uint32(i), uint32(i * 3)}, docs, scores); err != nil {
			fails++
		}
	}
	if fails == 0 || fails == 200 {
		t.Fatalf("degenerate fault stream: %d/200 failures", fails)
	}
}
