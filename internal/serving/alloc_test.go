//go:build !race

// Allocation-regression oracles for the fleet load engine's per-event path
// (DESIGN.md §16). The searchlint hotalloc analyzer proves the //lint:hot
// kernels allocation-free statically; these tests pin the full event step —
// heap pop, Zipf draw, term synthesis, Cluster.serve untraced (cache probe,
// fan-out, hedging, merges, cache put with eviction), histogram add, heap
// push — at zero allocations dynamically. Excluded under -race because race
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

// eventStep builds one closed-loop event step over cluster c and warms it
// until every pooled structure has reached steady state: the cache at
// capacity (so each put recycles an evicted entry), the hedge-dedup map at
// its working size, and the scratch buffers touched on every path.
func eventStep(t *testing.T, c *Cluster, clients int) func() {
	t.Helper()
	c.driveMu.Lock()
	t.Cleanup(c.driveMu.Unlock)
	e := newLoadEngine(clients, 4000, 0.9, 42)
	hist := stats.NewHistogram(8)
	step := func() {
		cl := e.popMin()
		r := c.serve(e.drawTerms(cl), clients-1)
		hist.Add(r.LatencyNS)
		e.next[cl] += r.LatencyNS
		e.push(cl)
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
