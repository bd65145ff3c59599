package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedIndependence(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("nearby seeds produced %d identical draws out of 1000", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	// Must not get stuck at zero.
	var nonzero bool
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := NewRNG(3)
	prop := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := NewRNG(5)
	const buckets = 10
	counts := make([]int, buckets)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("bucket %d count %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestShuffleKeepsElements(t *testing.T) {
	r := NewRNG(13)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d != %d", got, sum)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(21)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream correlates with parent: %d/1000 equal", same)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(31)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", got)
	}
}

// TestSkipMatchesUint64Calls: Skip(n) leaves a generator in the very state
// n calls of Uint64 leave a copy of it in, for n across 0, small counts and
// counts larger than any period a bug in the loop could hide behind.
func TestSkipMatchesUint64Calls(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 1000, 1 << 16, 1<<16 + 1} {
		skipped, called := NewRNG(uint64(n)+41), NewRNG(uint64(n)+41)
		skipped.Skip(n)
		for i := 0; i < n; i++ {
			called.Uint64()
		}
		if *skipped != *called {
			t.Fatalf("Skip(%d) left %+v, %d Uint64 calls %+v", n, *skipped, n, *called)
		}
		if skipped.Uint64() != called.Uint64() {
			t.Fatalf("Skip(%d): the next outputs differ", n)
		}
	}
	r := NewRNG(5)
	before := *r
	r.Skip(-3)
	if *r != before {
		t.Fatal("Skip of a negative count moved the generator")
	}
}
