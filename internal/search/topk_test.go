package search

import (
	"sort"
	"testing"
	"testing/quick"

	"searchmem/internal/stats"
)

// oracleTopK computes the expected result by full sort.
func oracleTopK(docs []uint32, scores []float32, k int) []uint32 {
	type pair struct {
		doc   uint32
		score float32
	}
	ps := make([]pair, len(docs))
	for i := range docs {
		ps[i] = pair{docs[i], scores[i]}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].score != ps[j].score {
			return ps[i].score > ps[j].score
		}
		return ps[i].doc < ps[j].doc
	})
	if len(ps) > k {
		ps = ps[:k]
	}
	out := make([]uint32, len(ps))
	for i, p := range ps {
		out[i] = p.doc
	}
	return out
}

func TestTopKMatchesSortOracle(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		rng := stats.NewRNG(seed)
		k := 1 + rng.Intn(10)
		tk := NewTopK(k)
		docs := make([]uint32, int(n)+1)
		scores := make([]float32, len(docs))
		for i := range docs {
			docs[i] = uint32(i)
			scores[i] = float32(rng.Intn(50)) / 10 // repeated scores force tie-breaks
			tk.Push(docs[i], scores[i])
		}
		got, gotScores := tk.Results()
		want := oracleTopK(docs, scores, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// Scores must be ordered non-increasing.
		for i := 1; i < len(gotScores); i++ {
			if gotScores[i] > gotScores[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKFewerThanK(t *testing.T) {
	tk := NewTopK(10)
	tk.Push(3, 1.0)
	tk.Push(7, 2.0)
	docs, scores := tk.Results()
	if len(docs) != 2 || docs[0] != 7 || docs[1] != 3 {
		t.Fatalf("results: %v", docs)
	}
	if scores[0] != 2.0 || scores[1] != 1.0 {
		t.Fatalf("scores: %v", scores)
	}
}

func TestTopKReset(t *testing.T) {
	tk := NewTopK(2)
	tk.Push(1, 5)
	tk.Reset()
	if len(tk.docs) != 0 {
		t.Fatal("reset did not empty")
	}
	tk.Push(2, 1)
	docs, _ := tk.Results()
	if len(docs) != 1 || docs[0] != 2 {
		t.Fatalf("after reset: %v", docs)
	}
}

func TestTopKTieBreaksByDocID(t *testing.T) {
	tk := NewTopK(2)
	tk.Push(9, 1.0)
	tk.Push(4, 1.0)
	tk.Push(6, 1.0)
	docs, _ := tk.Results()
	if docs[0] != 4 || docs[1] != 6 {
		t.Fatalf("tie break order: %v", docs)
	}
}

// TestTopKSaturatedPushDoesNotAllocate is the regression test for the
// saturated-push hot path: Push used to append the candidate past k and
// truncate, reallocating both backing arrays on the first saturated push
// and copying on every one after.
func TestTopKSaturatedPushDoesNotAllocate(t *testing.T) {
	const k = 8 // append growth lands cap exactly at k, exposing the realloc
	const runs = 64
	tks := make([]*TopK, runs+1)
	for i := range tks {
		tks[i] = NewTopK(k)
		for j := 0; j < k; j++ {
			tks[i].Push(uint32(j), float32(j))
		}
	}
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		tks[i].Push(uint32(100+i), float32(k+1)) // beats the root
		tks[i].Push(uint32(200+i), -1)           // loses to the root
		i++
	})
	if avg != 0 {
		t.Fatalf("saturated Push allocates %.1f times per call pair, want 0", avg)
	}
}

func BenchmarkTopKPushSaturated(b *testing.B) {
	rng := stats.NewRNG(1)
	scores := make([]float32, 4096)
	for i := range scores {
		scores[i] = float32(rng.Intn(10_000)) / 100
	}
	tk := NewTopK(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Push(uint32(i), scores[i&4095])
	}
}

func TestTopKPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 accepted")
		}
	}()
	NewTopK(0)
}
