package stats

import (
	"math"
	"sort"
	"testing"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(8)
	r := NewRNG(10)
	sample := make([]float64, 50000)
	for i := range sample {
		v := r.Exponential(100)
		sample[i] = v
		h.Add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		approx := h.Quantile(q)
		exact := ExactQuantile(sample, q)
		if exact == 0 {
			continue
		}
		rel := math.Abs(approx-exact) / exact
		if rel > 0.15 {
			t.Fatalf("q=%v: approx %v vs exact %v (rel err %v)", q, approx, exact, rel)
		}
	}
}

// TestHistogramQuantileUnbiased is the regression test for the bucket
// lower-bound bias: quantiles used to report the bucket's lower bound, so
// every P95/P99 read low by up to a full sub-bucket width. The geometric
// midpoint must land within ~2% of a known value, which the lower bound
// (96 for observations of 100 at 8 sub-buckets) cannot.
func TestHistogramQuantileUnbiased(t *testing.T) {
	h := NewHistogram(8)
	for i := 0; i < 1000; i++ {
		h.Add(100)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		if math.Abs(got-100)/100 > 0.02 {
			t.Fatalf("q=%v: got %v, want ~100 (lower-bound bias?)", q, got)
		}
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []float64{10, 20, 30} {
		h.Add(v)
	}
	if math.Abs(h.Mean()-20) > 1e-12 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(4)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestExactQuantile(t *testing.T) {
	s := []float64{5, 1, 3, 2, 4}
	if got := ExactQuantile(s, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := ExactQuantile(s, 0); got != 1 {
		t.Fatalf("min quantile = %v", got)
	}
	if got := ExactQuantile(s, 1); got != 5 {
		t.Fatalf("max quantile = %v", got)
	}
	if got := ExactQuantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	// Input must not be mutated.
	if s[0] != 5 {
		t.Fatal("ExactQuantile mutated its input")
	}
}

// TestHistogramBucketBounds checks bucket against bucketLow — the inverse it
// must agree with — on every bucket boundary of every octave, one ulp either
// side of it, below 1 and past the top: each value lies inside the bucket it
// is counted in. The logarithm the bucket index used to be computed from
// rounded the last double below 2^k up into the next octave.
func TestHistogramBucketBounds(t *testing.T) {
	for _, sub := range []int{1, 3, 4, 5, 8} {
		h := NewHistogram(sub)
		check := func(v float64) {
			t.Helper()
			b := h.bucket(v)
			if lo, hi := h.bucketLow(b), h.bucketLow(b+1); v < lo || v >= hi {
				t.Fatalf("sub=%d: bucket(%v) = %d, which spans [%v, %v)", sub, v, b, lo, hi)
			}
		}
		for i := 0; i < 64*sub; i++ {
			low := h.bucketLow(i)
			if got := h.bucket(low); got != i {
				t.Fatalf("sub=%d: bucket(bucketLow(%d) = %v) = %d", sub, i, low, got)
			}
			check(low)
			check(math.Nextafter(low, math.Inf(1)))
			if i > 0 {
				check(math.Nextafter(low, 0))
			}
		}
		for _, v := range []float64{0, 0.5, math.Nextafter(1, 0), -3} {
			if got := h.bucket(v); got != 0 {
				t.Fatalf("sub=%d: bucket(%v) = %d, want 0", sub, v, got)
			}
		}
		top := 64*sub - 1
		for _, v := range []float64{math.Nextafter(math.Exp2(64), 0), math.Exp2(64), math.Exp2(70), math.MaxFloat64, math.Inf(1)} {
			if got := h.bucket(v); got != top {
				t.Fatalf("sub=%d: bucket(%v) = %d, want the top bucket %d", sub, v, got, top)
			}
		}
	}
}

// ExactQuantile returns the exact q-quantile of a sample slice (the slice is
// not modified). The exact reference the
// histogram quantile tests compare against.
func ExactQuantile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
