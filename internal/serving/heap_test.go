package serving

import (
	"sort"
	"testing"

	"searchmem/internal/stats"
)

// TestEventHeapMatchesSort is the queue's oracle, sharing no code with it:
// whatever mix of heapify, replaceMin and popMin produced the heap, its
// minimum must be the first element of the same keys ordered by sort.Slice
// under (t, id). Times are drawn from a handful of values so ties — the case
// the id tie-break exists for — are the norm, and replacement keys may sort
// anywhere, not only after the current minimum. Now and then the live
// entries are shuffled and heapified again, so heapify sees every size on
// the way down.
func TestEventHeapMatchesSort(t *testing.T) {
	rng := stats.NewRNG(5)
	for _, n := range []int{1, 2, 4, 5, 6, 21, 22, 300} {
		keys := make([]event, 3*n)
		for i := range keys {
			keys[i] = event{t: float64(rng.Intn(n/2 + 1)), id: int32(i)}
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

		// The first n keys are heapified; the rest arrive through replaceMin.
		e := &loadEngine{heap: append([]event(nil), keys[:n]...)}
		e.heapify()
		ref := append([]event(nil), keys[:n]...)
		feed := keys[n:]
		for step := 0; len(ref) > 0; step++ {
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].t != ref[j].t {
					return ref[i].t < ref[j].t
				}
				return ref[i].id < ref[j].id
			})
			if len(e.heap) != len(ref) || e.heap[0] != ref[0] {
				t.Fatalf("n=%d step %d: heap holds %d with min %+v, sorted reference holds %d with min %+v",
					n, step, len(e.heap), e.heap[0], len(ref), ref[0])
			}
			if rng.Intn(8) == 0 {
				rng.Shuffle(len(e.heap), func(i, j int) { e.heap[i], e.heap[j] = e.heap[j], e.heap[i] })
				e.heapify()
			} else if len(feed) > 0 && rng.Intn(3) > 0 {
				e.replaceMin(feed[0])
				ref[0] = feed[0]
				feed = feed[1:]
			} else {
				e.popMin()
				ref = ref[1:]
			}
		}
		if len(e.heap) != 0 {
			t.Fatalf("n=%d: %d events left in the heap after the reference drained", n, len(e.heap))
		}
	}
}
