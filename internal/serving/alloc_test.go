//go:build !race

// The allocation gate for the fleet load engine's per-event path (DESIGN.md
// §14): testing.AllocsPerRun pins the full event step at zero allocations —
// queue peek, Zipf draw (stats.ZipfShape.Next), term synthesis (drawTerms),
// Cluster.serve untraced (cache probe, fan-out, hedging, merges, cache put
// with eviction), stats.Histogram.Add, the re-issue heap's replace-min, and
// in the open loop the completion heap, an arrival pushed into the drained
// prefix and a retiring client's popMin. Excluded under -race because race
// instrumentation inserts allocations of its own.

package serving

import (
	"math"
	"math/bits"
	"testing"

	"searchmem/internal/stats"
)

// requireZeroAllocs runs f through testing.AllocsPerRun (which performs one
// warm-up call before measuring, absorbing any one-time lazy growth) and
// fails if steady-state allocations are nonzero.
func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(10, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, avg)
	}
}

// closedEngine is the engine of a closed loop at its first event.
func closedEngine(clients int) *loadEngine {
	e := newLoadEngine(4000, 0.9)
	e.queueAll(clients, 42)
	return e
}

// eventStep builds one closed-loop event step over cluster c and warms it
// until every pooled structure has reached steady state: the cache at
// capacity (so each put evicts an entry), the hedge-dedup map at its
// working size, and the scratch buffers touched on every path.
func eventStep(t *testing.T, c *Cluster, clients int) func() {
	t.Helper()
	c.driveMu.Lock()
	t.Cleanup(c.driveMu.Unlock)
	e := closedEngine(clients)
	hist := stats.NewHistogram(8)
	step := func() {
		ev, inHeap, _ := e.peek()
		lat, _ := c.serve(e.drawTerms(ev.slot), clients-1)
		hist.Add(lat)
		e.reissue(inHeap, event{ev.t + lat, ev.id, ev.slot})
	}
	for i := 0; i < 5000; i++ {
		step()
	}
	return step
}

// TestEventStepZeroAlloc pins the healthy serving path: cache hits, cache
// misses with full fan-out, and put-with-eviction churn (CacheSlots far
// below the active query set keeps the slab evicting on most misses).
func TestEventStepZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 64
	cfg.LeafCapacity = 256
	requireZeroAllocs(t, "closed-loop event step (healthy)", eventStep(t, NewCluster(cfg, nil), 128))
}

// TestEventStepZeroAllocFaulty pins the degraded path: fault injection,
// deadlines, hedged retries, and hedge-win dedup all active.
func TestEventStepZeroAllocFaulty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 64
	cfg.LeafCapacity = 256
	cfg.LeafDeadlineNS = 8e6
	cfg.HedgeDelayNS = 4e6
	requireZeroAllocs(t, "closed-loop event step (faulty)", eventStep(t, faultyCluster(cfg, 12, 7), 128))
}

// TestOpenLoopStepZeroAlloc pins the open-loop step. First arrivals come
// 1 ms apart and each client issues twice: its arrival is consumed and its
// re-issue pushed into the drained prefix 64 ms later, where it is popped
// and retired, so every stretch of steps takes both paths. Against ~10 ms
// queries about twenty are in flight, and the completion heap, which is not
// reserved up front, must stop growing once that count has peaked. After
// the run the heap must still be the arrivals' own array, same base and
// same capacity: the queue has no growth path.
func TestOpenLoopStepZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 64
	cfg.LeafCapacity = 256
	c := NewCluster(cfg, nil)
	c.driveMu.Lock()
	t.Cleanup(c.driveMu.Unlock)
	const clients = 8192
	e := closedEngine(clients)
	for cl := range e.arrivals {
		e.arrivals[cl].t = float64(cl) * 1e6 // ascending, so still sorted
	}
	hist := stats.NewHistogram(8)
	var comp []float64
	retired, pushed, popped := 0, 0, 0
	step := func() {
		ev, inHeap, _ := e.peek()
		for len(comp) > 0 && comp[0] <= ev.t {
			compPop(&comp)
			retired++
		}
		lat, _ := c.serve(e.drawTerms(ev.slot), len(comp))
		hist.Add(lat)
		compPush(&comp, ev.t+lat)
		if inHeap {
			e.retire(true)
			popped++
		} else {
			e.reissue(false, event{ev.t + 64e6, ev.id, ev.slot})
			pushed++
		}
	}
	for i := 0; i < 5000; i++ {
		step()
	}
	retired, pushed, popped = 0, 0, 0
	requireZeroAllocs(t, "open-loop event step", step)
	if retired == 0 || len(comp) < 2 || pushed == 0 || popped == 0 {
		t.Fatalf("step did not exercise the queue and the completion heap: %d pushed, %d popped, %d retired, %d in flight",
			pushed, popped, retired, len(comp))
	}
	if h, a := e.heap[:cap(e.heap)], e.arrivals[:cap(e.arrivals)]; &h[0] != &a[0] || len(h) != len(a) {
		t.Fatalf("re-issue heap left the arrivals' array: base %p cap %d, arrivals base %p cap %d",
			&h[0], cap(e.heap), &a[0], cap(e.arrivals))
	}
}

// TestIssueFillZeroAlloc pins the open loop's generator stage: fillIssues
// over a queue that neither empties nor stalls (a horizon of a million
// virtual seconds, millions of issues per client), so each call takes first
// arrivals, pushes re-issues into the drained prefix and replaces the heap's
// minimum, with the Zipf draw and the rate curve's diurnal and burst terms
// on every issue.
func TestIssueFillZeroAlloc(t *testing.T) {
	sc := &Scenario{
		Clients: 4096, VocabSize: 4000, Skew: 0.9, Seed: 42,
		Arrival: &RateCurve{
			BaseQPS: 20_000, DiurnalAmplitude: 0.25, DiurnalPeriodNS: 1e9,
			Bursts: []Burst{{StartNS: 0, EndNS: math.Inf(1), Factor: 2}},
		},
		DurationNS: 1e15,
	}
	e := newLoadEngine(sc.VocabSize, sc.Skew)
	e.queueArrivals(sc.Clients, sc.Seed, float64(sc.Clients)/sc.Arrival.At(0)*1e9, sc.DurationNS)
	buf := make([]issue, 256)
	for i := 0; i < 8; i++ {
		e.fillIssues(buf, sc)
	}
	pushed := e.fi
	requireZeroAllocs(t, "generator fill", func() {
		if n := e.fillIssues(buf, sc); n != len(buf) {
			t.Fatalf("fill wrote %d issues of %d: the queue emptied", n, len(buf))
		}
	})
	if e.fi == pushed || len(e.heap) == 0 {
		t.Fatalf("fills took no first arrival (%d of %d taken) or left no re-issue pending", e.fi, len(e.arrivals))
	}
}

// TestRunScenarioAllocLaw pins that an open loop's allocations do not grow
// with its events: a day and a day ten times as long, over a population
// that arrives almost whole in either, allocate the same number of times.
// What a run allocates is its client state, the handoff's buffers and
// channels, the goroutines' closures and the completion heap, whose growth
// depends on the peak occupancy: the test checks that both days reach a
// peak inside the same power of two first, so the law it holds is the one
// about events.
func TestRunScenarioAllocLaw(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 256
	day := func(d float64) Scenario {
		return Scenario{
			Clients: 500, VocabSize: 400, Skew: 1.1, Seed: 9,
			Arrival:    &RateCurve{BaseQPS: 5000, DiurnalAmplitude: 0.2, DiurnalPeriodNS: d / 3},
			DurationNS: d,
		}
	}
	measure := func(d float64) (float64, FleetStats) {
		c := NewCluster(cfg, nil)
		var fs FleetStats
		allocs := testing.AllocsPerRun(3, func() { fs = RunScenario(c, day(d)) })
		return allocs, fs
	}
	short, fsShort := measure(2e9)
	long, fsLong := measure(20e9)
	if fsLong.Served < 9*fsShort.Served {
		t.Fatalf("the long day served %d queries, the short one %d: want ten times as many", fsLong.Served, fsShort.Served)
	}
	if bits.Len64(uint64(fsShort.PeakInflight-1)) != bits.Len64(uint64(fsLong.PeakInflight-1)) {
		t.Fatalf("peak occupancy %d and %d lie in different powers of two: choose another day", fsShort.PeakInflight, fsLong.PeakInflight)
	}
	if short != long {
		t.Fatalf("RunScenario allocated %.0f times over %d events and %.0f times over %d",
			short, fsShort.EventsProcessed, long, fsLong.EventsProcessed)
	}
}

// TestSyntheticSearchBufZeroAlloc pins the synthetic leaf call: after its
// first call has built the selector and the candidate batch, SearchBuf
// allocates nothing.
func TestSyntheticSearchBufZeroAlloc(t *testing.T) {
	e := NewSyntheticExecutor(3, 10)
	docs, scores := make([]uint32, 10), make([]float32, 10)
	terms := []uint32{17, 4}
	if _, _, err := e.SearchBuf(terms, docs, scores); err != nil {
		t.Fatal(err)
	}
	requireZeroAllocs(t, "SyntheticExecutor.SearchBuf", func() {
		terms[0]++
		e.SearchBuf(terms, docs, scores)
	})
}

// TestCachePutChurnZeroAlloc pins the cache tier alone: a put that evicts
// and a get copy through the slab and the index built with the tier.
func TestCachePutChurnZeroAlloc(t *testing.T) {
	s := newCacheServer(32, 10)
	docs := []uint32{1, 2, 3, 4}
	scores := []float32{4, 3, 2, 1}
	tag := uint64(0)
	for i := 0; i < 10000; i++ { // fill and churn well past capacity
		s.put(tag, docs, scores)
		tag++
	}
	requireZeroAllocs(t, "cache put with eviction", func() {
		s.put(tag, docs, scores)
		tag++
	})
	gd, gs := make([]uint32, 4), make([]float32, 4)
	requireZeroAllocs(t, "cache get", func() {
		s.get(tag-1, gd, gs)
	})
}
