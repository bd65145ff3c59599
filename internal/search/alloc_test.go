//go:build !race

// The allocation gate for the top-k kernel (DESIGN.md §17). Excluded under
// -race because race instrumentation inserts allocations of its own.

package search

import "testing"

// TestTopKZeroAlloc pins Push, PushKeys and ResultsInto at zero allocations
// from a fresh selector's first call on: NewTopK reserves all k slots, so
// filling, saturating and draining never grow anything. Every run uses a
// selector that has never been pushed to.
func TestTopKZeroAlloc(t *testing.T) {
	const k = 8
	const runs = 64
	tks := make([]*TopK, runs+1)
	for i := range tks {
		tks[i] = NewTopK(k)
	}
	batch := make([]uint64, 4*k)
	for i := range batch {
		batch[i] = ResultKey(uint32(1000+i), float32(i%7))
	}
	docs, scores := make([]uint32, k), make([]float32, k)
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		tk := tks[i]
		for j := 0; j < 2*k; j++ {
			tk.Push(uint32(j), float32(j%5)) // fills, then saturates
		}
		tk.PushKeys(batch)
		if tk.ResultsInto(docs, scores) != k {
			t.Fatal("selector did not keep k results")
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("Push/PushKeys/ResultsInto allocate %.1f times per run, want 0", avg)
	}
}
