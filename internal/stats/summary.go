package stats

import (
	"math"
	"math/bits"
)

// Histogram is a log-scaled latency/size histogram covering [1, maxValue]
// with a configurable number of buckets per power of two. It supports
// approximate quantiles with bounded relative error.
type Histogram struct {
	subBuckets int // buckets per power of two
	counts     []int64
	total      int64
	sum        float64
}

// NewHistogram returns a histogram with sub sub-buckets per octave covering
// 64 octaves (the full uint64 range).
func NewHistogram(sub int) *Histogram {
	if sub <= 0 {
		sub = 4
	}
	return &Histogram{subBuckets: sub, counts: make([]int64, 64*sub)}
}

// mantBits is the width of a float64's fraction field.
const mantBits = 52

// bucket maps a value to its bucket index. The octave is v's binary exponent
// and the sub-bucket is floor(fraction * subBuckets), both read off the bits
// of v in integer arithmetic: nothing rounds, so a value one ulp below 2^k
// stays in octave k-1 and bucketLow below is an exact inverse for any
// subBuckets. Inf and NaN land in the top bucket.
func (h *Histogram) bucket(v float64) int {
	if v < 1 {
		return 0
	}
	b := math.Float64bits(v)
	octave := int(b>>mantBits) - 1023
	sub, _ := bits.Mul64(b<<(64-mantBits), uint64(h.subBuckets)) // fraction as 0.64 fixed point
	idx := octave*h.subBuckets + int(sub)
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	return idx
}

// bucketLow returns the lower bound of bucket i: the smallest value bucket
// maps to i (2^octave * (1 + j/subBuckets), rounded up to a float64 when
// subBuckets is not a power of two).
func (h *Histogram) bucketLow(i int) float64 {
	octave, j := i/h.subBuckets, uint64(i%h.subBuckets)
	frac, rem := bits.Div64(j>>(64-mantBits), j<<mantBits, uint64(h.subBuckets))
	if rem > 0 {
		frac++
	}
	return math.Float64frombits(uint64(octave+1023)<<mantBits | frac)
}

// bucketMid returns the geometric mean of bucket i's bounds: the unbiased
// representative value under the log-scaled layout. Returning the lower
// bound instead would bias every reported quantile systematically low by up
// to a full bucket width.
func (h *Histogram) bucketMid(i int) float64 {
	return math.Sqrt(h.bucketLow(i) * h.bucketLow(i+1))
}

// Add records one observation (values < 1 land in the first bucket).
func (h *Histogram) Add(v float64) {
	h.counts[h.bucket(v)]++
	h.total++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the exact mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns an approximation of the q-quantile (0 <= q <= 1) with
// relative error bounded by the sub-bucket width.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := int64(q * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			return h.bucketMid(i)
		}
	}
	return h.bucketMid(len(h.counts) - 1)
}
