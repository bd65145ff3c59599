//go:build !race

// The allocation gate for the fleet load engine's per-event path (DESIGN.md
// §14): testing.AllocsPerRun pins the full event step at zero allocations —
// heap peek, Zipf draw (stats.ZipfShape.Next), term synthesis (drawTerms),
// Cluster.serve untraced (cache probe, fan-out, hedging, merges, cache put
// with eviction), stats.Histogram.Add, heap replace-min, and in the open loop
// the completion heap and a retiring client's popMin. Excluded under -race
// because race instrumentation inserts allocations of its own.

package serving

import (
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
	e := newLoadEngine(clients, 4000, 0.9, 42)
	e.queueAll()
	return e
}

// eventStep builds one closed-loop event step over cluster c and warms it
// until every pooled structure has reached steady state: the cache at
// capacity (so each put recycles an evicted entry), the hedge-dedup map at
// its working size, and the scratch buffers touched on every path.
func eventStep(t *testing.T, c *Cluster, clients int) func() {
	t.Helper()
	c.driveMu.Lock()
	t.Cleanup(c.driveMu.Unlock)
	e := closedEngine(clients)
	hist := stats.NewHistogram(8)
	step := func() {
		ev := e.heap[0]
		r := c.serve(e.drawTerms(ev.id), clients-1)
		hist.Add(r.LatencyNS)
		e.replaceMin(event{ev.t + r.LatencyNS, ev.id})
	}
	for i := 0; i < 5000; i++ {
		step()
	}
	return step
}

// TestEventStepZeroAlloc pins the healthy serving path: cache hits, cache
// misses with full fan-out, and put-with-eviction churn (CacheSlots far
// below the active query set keeps the ring recycling on most misses).
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

// TestOpenLoopStepZeroAlloc pins the open-loop step: the completion heap is
// not reserved up front, so it must stop growing once the in-flight count
// has peaked. Arrivals 1 ms apart against ~10 ms queries keep about ten in
// flight, and every step retires as many completions as it adds.
func TestOpenLoopStepZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 64
	cfg.LeafCapacity = 256
	c := NewCluster(cfg, nil)
	c.driveMu.Lock()
	t.Cleanup(c.driveMu.Unlock)
	const clients = 128
	e := closedEngine(clients)
	for cl := range e.heap {
		e.heap[cl].t = float64(cl) * 1e6 // ascending, so still a heap
	}
	hist := stats.NewHistogram(8)
	var comp []float64
	retired := 0
	step := func() {
		ev := e.heap[0]
		for len(comp) > 0 && comp[0] <= ev.t {
			compPop(&comp)
			retired++
		}
		r := c.serve(e.drawTerms(ev.id), len(comp))
		hist.Add(r.LatencyNS)
		compPush(&comp, ev.t+r.LatencyNS)
		e.replaceMin(event{ev.t + clients*1e6, ev.id})
	}
	for i := 0; i < 5000; i++ {
		step()
	}
	retired = 0
	requireZeroAllocs(t, "open-loop event step", step)
	if retired == 0 || len(comp) < 2 {
		t.Fatalf("step did not exercise the completion heap: retired %d, %d in flight", retired, len(comp))
	}
	// A client past its budget or the horizon leaves the issue heap.
	requireZeroAllocs(t, "retiring client (popMin)", e.popMin)
	if len(e.heap) != clients-11 {
		t.Fatalf("%d clients left after 11 retirements of %d", len(e.heap), clients)
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

// TestCachePutChurnZeroAlloc pins the ring cache alone: steady-state
// eviction must recycle the victim's entry and storage.
func TestCachePutChurnZeroAlloc(t *testing.T) {
	s := newCacheServer(32)
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
