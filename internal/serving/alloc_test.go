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
// capacity (so each put recycles an evicted entry), the hedge-dedup map at
// its working size, and the scratch buffers touched on every path.
func eventStep(t *testing.T, c *Cluster, clients int) func() {
	t.Helper()
	c.driveMu.Lock()
	t.Cleanup(c.driveMu.Unlock)
	e := closedEngine(clients)
	hist := stats.NewHistogram(8)
	step := func() {
		ev, inHeap, _ := e.peek()
		r := c.serve(e.drawTerms(ev.slot), clients-1)
		hist.Add(r.LatencyNS)
		e.reissue(inHeap, event{ev.t + r.LatencyNS, ev.id, ev.slot})
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
		r := c.serve(e.drawTerms(ev.slot), len(comp))
		hist.Add(r.LatencyNS)
		compPush(&comp, ev.t+r.LatencyNS)
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
