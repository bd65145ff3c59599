package stats

import "math"

// ZipfShape holds the rank count, exponent, and rejection-inversion
// constants of a Zipf distribution, independent of any RNG. One shape can be
// shared by millions of samplers (e.g. one per simulated client) that differ
// only in their random stream: Next draws from a caller-owned RNG and never
// allocates, which is what lets the fleet load engine keep per-client state
// as a flat RNG array instead of a *Zipf per client.
type ZipfShape struct {
	n uint64
	s float64

	// rejection-inversion precomputed constants
	oneMinusS    float64
	oneOverOneMS float64
	hx0          float64
	hImaxPlus1   float64
	sDiv         float64
}

// NewZipfShape precomputes a shape over [0, n) with exponent s > 0.
// It panics if n == 0 or s <= 0.
func NewZipfShape(n uint64, s float64) *ZipfShape {
	if n == 0 {
		panic("stats: NewZipfShape with n == 0")
	}
	if s <= 0 {
		panic("stats: NewZipfShape with s <= 0")
	}
	z := &ZipfShape{n: n, s: s}
	z.oneMinusS = 1 - s
	z.oneOverOneMS = 1 / z.oneMinusS
	z.hx0 = z.h(0.5) - math.Exp(-s*math.Log(1))
	z.hImaxPlus1 = z.h(float64(n) + 0.5)
	z.sDiv = 2 - z.hInv(z.h(1.5)-math.Exp(-s*math.Log(2)))
	return z
}

// h is the integral of the density 1/x^s; hInv its inverse. The s == 1 case
// degenerates to log, handled by a small epsilon shift for numerical safety.
func (z *ZipfShape) h(x float64) float64 {
	if math.Abs(z.oneMinusS) < 1e-9 {
		return math.Log(x)
	}
	return math.Exp(z.oneMinusS*math.Log(x)) * z.oneOverOneMS
}

func (z *ZipfShape) hInv(x float64) float64 {
	if math.Abs(z.oneMinusS) < 1e-9 {
		return math.Exp(x)
	}
	return math.Exp(z.oneOverOneMS * math.Log(z.oneMinusS*x))
}

// Next returns the next sample in [0, n) drawn from rng. Rank 0 is the most
// popular.
func (z *ZipfShape) Next(rng *RNG) uint64 {
	// Hörmann & Derflinger rejection-inversion, adapted to 0-based ranks.
	for {
		u := z.hImaxPlus1 + rng.Float64()*(z.hx0-z.hImaxPlus1)
		x := z.hInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		}
		if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.sDiv || u >= z.h(k+0.5)-math.Exp(-z.s*math.Log(k)) {
			return uint64(k) - 1
		}
	}
}

// Zipf samples ranks in [0, N) with P(k) proportional to 1/(k+1)^S.
//
// Unlike math/rand's Zipf, this implementation supports any positive skew S,
// including S <= 1, which is the regime reported for cache and web-access
// popularity distributions. Sampling uses Hörmann's rejection-inversion for
// the general case, with exact inversion fallbacks for tiny N. It is a thin
// binding of a ZipfShape to an owned RNG; draw sequences are bit-identical
// to calling shape.Next(rng) directly.
type Zipf struct {
	rng   *RNG
	shape ZipfShape
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0.
// It panics if n == 0 or s <= 0.
func NewZipf(rng *RNG, n uint64, s float64) *Zipf {
	return &Zipf{rng: rng, shape: *NewZipfShape(n, s)}
}

// Next returns the next sample in [0, n). Rank 0 is the most popular.
func (z *Zipf) Next() uint64 {
	return z.shape.Next(z.rng)
}

// ZipfCDF is an exact, CDF-inversion Zipf sampler. It precomputes the full
// cumulative distribution, which makes it suitable for small N (vocabulary
// popularity, query popularity) where exactness matters more than memory.
type ZipfCDF struct {
	rng *RNG
	cdf []float64
}

// NewZipfCDF returns an exact sampler over [0, n) with exponent s > 0.
func NewZipfCDF(rng *RNG, n int, s float64) *ZipfCDF {
	if n <= 0 {
		panic("stats: NewZipfCDF with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Exp(-s * math.Log(float64(i+1)))
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &ZipfCDF{rng: rng, cdf: cdf}
}

// Next returns the next sample in [0, n). Rank 0 is the most popular.
func (z *ZipfCDF) Next() int {
	u := z.rng.Float64()
	// Binary search for the first CDF entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Exponential returns a draw from an exponential distribution with the given
// mean. Used for inter-arrival times in the serving-tree simulator.
func (r *RNG) Exponential(mean float64) float64 {
	return -mean * math.Log(1-r.Float64())
}

// Pareto returns a draw from a bounded Pareto distribution on [min, max]
// with shape alpha. Used for document-length and posting-list-length models,
// which are heavy-tailed in real corpora.
func (r *RNG) Pareto(min, max, alpha float64) float64 {
	if min <= 0 || max <= min || alpha <= 0 {
		panic("stats: Pareto requires 0 < min < max and alpha > 0")
	}
	u := r.Float64()
	la, ha := math.Pow(min, alpha), math.Pow(max, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}
