package search

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"searchmem/internal/stats"
)

// oracleTopK computes the expected result by full sort, comparing scores as
// floats: -0 ties with +0, and a NaN ranks below every number and ties with
// every other NaN. Ties go to the lower doc id.
func oracleTopK(docs []uint32, scores []float32, k int) ([]uint32, []float32) {
	type pair struct {
		doc   uint32
		score float32
	}
	ps := make([]pair, len(docs))
	for i := range docs {
		ps[i] = pair{docs[i], scores[i]}
	}
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		aNaN, bNaN := a.score != a.score, b.score != b.score
		if aNaN != bNaN {
			return bNaN
		}
		if !aNaN && a.score != b.score {
			return a.score > b.score
		}
		return a.doc < b.doc
	})
	if len(ps) > k {
		ps = ps[:k]
	}
	outDocs := make([]uint32, len(ps))
	outScores := make([]float32, len(ps))
	for i, p := range ps {
		outDocs[i], outScores[i] = p.doc, p.score
	}
	return outDocs, outScores
}

// sameResultScore reports whether the selector returned want's score: a
// NaN as some NaN, a zero of either sign as +0, anything else exactly.
func sameResultScore(got, want float32) bool {
	switch {
	case want != want:
		return got != got
	case want == 0:
		return got == 0 && !math.Signbit(float64(got))
	}
	return got == want
}

// checkAgainstOracle fails t unless (docs, scores) is the oracle's top-k of
// the offered candidates.
func checkAgainstOracle(t *testing.T, docs []uint32, scores []float32, offDocs []uint32, offScores []float32, k int) {
	t.Helper()
	wantDocs, wantScores := oracleTopK(offDocs, offScores, k)
	if len(docs) != len(wantDocs) {
		t.Fatalf("k=%d: %d results, want %d", k, len(docs), len(wantDocs))
	}
	for i := range docs {
		if docs[i] != wantDocs[i] || !sameResultScore(scores[i], wantScores[i]) {
			t.Fatalf("k=%d: result %d is (%d, %v), want (%d, %v)\ngot  %v %v\nwant %v %v",
				k, i, docs[i], scores[i], wantDocs[i], wantScores[i], docs, scores, wantDocs, wantScores)
		}
	}
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
		want, wantScores := oracleTopK(docs, scores, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] || gotScores[i] != wantScores[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// fuzzDocs and fuzzScores are the candidate pools FuzzTopKMatchesSort draws
// from: few docs and repeated scores force ties and duplicate candidates;
// the scores cover both zeros, both infinities, NaN, negatives, subnormals
// and the extremes of the doc and score ranges.
var (
	fuzzDocs   = []uint32{0, 1, 2, 3, 7, 1<<31 - 1, 1 << 31, math.MaxUint32}
	fuzzScores = []float32{
		0, math.Float32frombits(1 << 31), 1, 1, -1, -1, 2.5, -2.5, 1e-3, -1e-3,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-40,
		math.MaxFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	}
)

// FuzzTopKMatchesSort runs any mix of Push, PushKeys, Reset and drains
// (Results or ResultsInto) against the full-sort oracle. k is 1..33. Each op
// byte's low two bits pick the op: 0 or 1 pushes the candidate in the next
// byte, 2 pushes the next op>>2 bytes' candidates as one batch, 3 resets or
// drains. A candidate byte's low three bits pick the doc, the rest the score.
func FuzzTopKMatchesSort(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 8, 3})
	f.Add(uint8(2), []byte{0, 0, 0, 9, 0, 10, 0, 255, 7})
	f.Add(uint8(9), []byte{2<<2 | 2, 0, 8, 1, 17, 3, 50, 50, 0, 151, 7, 0, 144})
	f.Add(uint8(32), []byte{63<<2 | 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	rng := stats.NewRNG(7)
	long := make([]byte, 400)
	for i := range long {
		long[i] = byte(rng.Intn(256))
	}
	f.Add(uint8(4), long)

	f.Fuzz(func(t *testing.T, kb uint8, ops []byte) {
		k := 1 + int(kb)%33
		tk := NewTopK(k)
		var offDocs []uint32
		var offScores []float32
		offer := func(b byte) (uint32, float32) {
			doc, score := fuzzDocs[b&7], fuzzScores[int(b>>3)%len(fuzzScores)]
			offDocs = append(offDocs, doc)
			offScores = append(offScores, score)
			return doc, score
		}
		drain := func(into bool) {
			var docs []uint32
			var scores []float32
			if into {
				docs, scores = make([]uint32, k+1), make([]float32, k+1)
				n := tk.ResultsInto(docs, scores)
				docs, scores = docs[:n], scores[:n]
			} else {
				docs, scores = tk.Results()
			}
			checkAgainstOracle(t, docs, scores, offDocs, offScores, k)
			offDocs, offScores = offDocs[:0], offScores[:0]
		}
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			switch op & 3 {
			case 0, 1:
				if i+1 < len(ops) {
					i++
					tk.Push(offer(ops[i]))
				}
			case 2:
				n := min(int(op>>2), len(ops)-i-1)
				batch := make([]uint64, n)
				for j := range batch {
					i++
					batch[j] = ResultKey(offer(ops[i]))
				}
				tk.PushKeys(batch)
			case 3:
				switch (op >> 2) % 3 {
				case 0:
					tk.Reset()
					offDocs, offScores = offDocs[:0], offScores[:0]
				case 1:
					drain(false)
				case 2:
					drain(true)
				}
			}
		}
		drain(false)
		// A drained selector is empty.
		if docs, _ := tk.Results(); len(docs) != 0 {
			t.Fatalf("%d results after a drain", len(docs))
		}
	})
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
	if tk.count() != 0 {
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

// TestTopKSignedZero pins that -0 ties with +0 (the lower doc wins, in
// either push order) and comes back as +0.
func TestTopKSignedZero(t *testing.T) {
	negZero := math.Float32frombits(1 << 31)
	for _, order := range [][2]uint32{{5, 8}, {8, 5}} {
		tk := NewTopK(3)
		for _, doc := range order {
			score := float32(0)
			if doc == 5 {
				score = negZero
			}
			tk.Push(doc, score)
		}
		tk.Push(9, -math.SmallestNonzeroFloat32)
		docs, scores := tk.Results()
		if docs[0] != 5 || docs[1] != 8 || docs[2] != 9 {
			t.Fatalf("push order %v: docs %v, want [5 8 9]", order, docs)
		}
		if math.Signbit(float64(scores[0])) || math.Signbit(float64(scores[1])) {
			t.Fatalf("push order %v: zero scores %v, want both +0", order, scores[:2])
		}
	}
}

// TestTopKNaNRanksLast pins NaN's one rank: below every number, -Inf
// included; NaNs tie with each other (the lower doc wins) and come back as
// NaN.
func TestTopKNaNRanksLast(t *testing.T) {
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(0xffc00001)
	tk := NewTopK(4)
	tk.Push(1, nan)
	tk.Push(2, float32(math.Inf(-1)))
	tk.Push(3, negNaN)
	tk.Push(0, nan)
	tk.Push(4, 7)
	docs, scores := tk.Results()
	if want := []uint32{4, 2, 0, 1}; !slices.Equal(docs, want) {
		t.Fatalf("docs %v, want %v", docs, want)
	}
	if scores[0] != 7 || !math.IsInf(float64(scores[1]), -1) || scores[2] == scores[2] || scores[3] == scores[3] {
		t.Fatalf("scores %v, want [7 -Inf NaN NaN]", scores)
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
