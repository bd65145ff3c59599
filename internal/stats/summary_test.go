package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v", s.Variance())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.N() != 0 {
		t.Fatal("zero-value summary must report zeros")
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	prop := func(vals []float64) bool {
		// Skip pathological inputs (quick can generate NaN/Inf).
		var clean []float64
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				clean = append(clean, v)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var s Summary
		var sum float64
		for _, v := range clean {
			s.Add(v)
			sum += v
		}
		mean := sum / float64(len(clean))
		var ss float64
		for _, v := range clean {
			ss += (v - mean) * (v - mean)
		}
		naiveVar := ss / float64(len(clean)-1)
		scale := math.Max(1, math.Abs(naiveVar))
		return math.Abs(s.Mean()-mean) < 1e-6 &&
			math.Abs(s.Variance()-naiveVar)/scale < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

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

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(8)
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	ps := h.Percentiles(50, 90, 99)
	if len(ps) != 3 {
		t.Fatalf("got %d percentiles", len(ps))
	}
	if !(ps[0] < ps[1] && ps[1] < ps[2]) {
		t.Fatalf("percentiles not increasing: %v", ps)
	}
	// p50 of 1..1000 should be near 500: midpoint quantiles tighten the
	// old lower-bound band (350-650) to within one sub-bucket.
	if ps[0] < 450 || ps[0] > 560 {
		t.Fatalf("p50 = %v, want ~500", ps[0])
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
