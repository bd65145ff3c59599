package stats

import "math"

// ZipfShape holds the rank count, exponent, and rejection-inversion
// constants of a Zipf distribution, independent of any RNG. One shape can be
// shared by millions of samplers (e.g. one per simulated client) that differ
// only in their random stream: Next draws from a caller-owned RNG and never
// allocates, which is what lets the fleet load engine keep per-client state
// as a flat RNG array instead of a *Zipf per client.
//
// The rejection-inversion formula is the only definition of the
// distribution. Where its squeeze provably accepts every draw, the shape
// also keeps an inversion table of the formula's own decision points, so
// that Next can skip the per-draw math.Log and math.Exp; see NewZipfShape.
type ZipfShape struct {
	n uint64
	s float64

	// rejection-inversion precomputed constants
	oneMinusS    float64
	oneOverOneMS float64
	hx0          float64
	hImaxPlus1   float64
	sDiv         float64

	// The inversion table, nil where the squeeze can reject. bound[0] is
	// hx0 and bound[r] = h(r+0.5) for r = 1..K with K = min(n, zipfTableMax),
	// so the formula's rank for u is the r with bound[r] <= u < bound[r+1].
	// guide[j] is the rank containing the centre of cell j, one of
	// len(guide) = 2K equal cells over [bound[0], bound[K]], and guideScale
	// converts u - bound[0] to a cell index.
	bound      []float64
	guide      []uint16
	guideScale float64
}

// zipfTableMax caps the ranks a shape tabulates: 2^16 keeps the guide
// entries in a uint16 and the table at 768 KiB (bounds 512 KiB, guide
// 256 KiB). Draws past the last tabulated rank take the formula.
const zipfTableMax = 1 << 16

// tableEps is the relative band around each tabulated bound inside which
// Next defers to the formula. The formula's x = hInv(u) and the tabulated
// h(k+0.5) each carry a few ulps of rounding, scaled by the same 1/|1-s| on
// both sides and far below 1e-9 relative; a u that is 1e-9 of its own
// magnitude inside a rank's interval lies on the same side of both edges in
// either computation, so the table and the formula cannot disagree.
const tableEps = 1e-9

// NewZipfShape precomputes a shape over [0, n) with exponent s > 0.
// It panics if n == 0, if s is not positive, or if s is so large (or not a
// number) that the rejection-inversion constants are not finite, where Next
// would loop forever.
//
// When the squeeze test k - x <= sDiv accepts every draw (sDiv > 0.5 covers
// every interior rank, 1 - hInv(hx0) <= sDiv the clamp to rank 1 at the low
// end; both are false on NaN), the formula reduces to rounding hInv(u), a
// monotone step function of u, and the shape tabulates its steps.
func NewZipfShape(n uint64, s float64) *ZipfShape {
	if n == 0 {
		panic("stats: NewZipfShape with n == 0")
	}
	if !(s > 0) {
		panic("stats: NewZipfShape with s <= 0 or NaN")
	}
	z := &ZipfShape{n: n, s: s}
	z.oneMinusS = 1 - s
	z.oneOverOneMS = 1 / z.oneMinusS
	z.hx0 = z.h(0.5) - math.Exp(-s*math.Log(1))
	z.hImaxPlus1 = z.h(float64(n) + 0.5)
	z.sDiv = 2 - z.hInv(z.h(1.5)-math.Exp(-s*math.Log(2)))
	if !finite(z.hx0) || !finite(z.hImaxPlus1) || !finite(z.sDiv) {
		panic("stats: NewZipfShape with a skew whose constants are not finite")
	}
	if z.sDiv > 0.5 && 1-z.hInv(z.hx0) <= z.sDiv {
		z.tabulate()
	}
	return z
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// tabulate fills the inversion table. The guide only shortens Next's scan;
// correctness rests on the bounds and the band alone.
func (z *ZipfShape) tabulate() {
	k := int(min(z.n, zipfTableMax))
	z.bound = make([]float64, k+1)
	z.bound[0] = z.hx0
	for r := 1; r <= k; r++ {
		z.bound[r] = z.h(float64(r) + 0.5)
	}
	lo, width := z.bound[0], z.bound[k]-z.bound[0]
	z.guide = make([]uint16, 2*k)
	z.guideScale = float64(len(z.guide)) / width
	r := 0
	for j := range z.guide {
		centre := lo + (float64(j)+0.5)*width/float64(len(z.guide))
		for r < k-1 && centre >= z.bound[r+1] {
			r++
		}
		z.guide[j] = uint16(r)
	}
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
	u := z.hImaxPlus1 + rng.Float64()*(z.hx0-z.hImaxPlus1)
	if r, ok := z.lookup(u); ok {
		return r
	}
	for {
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
		u = z.hImaxPlus1 + rng.Float64()*(z.hx0-z.hImaxPlus1)
	}
}

// lookup returns the formula's rank for u from the inversion table. It
// reports false, leaving u to the formula, when the shape has no table (its
// guide is empty, so every cell index is out of range), when u lies past the
// last tabulated bound, and when u is within tableEps of either edge of its
// rank's interval.
func (z *ZipfShape) lookup(u float64) (uint64, bool) {
	j := int((u - z.hx0) * z.guideScale)
	if uint(j) >= uint(len(z.guide)) {
		return 0, false
	}
	b := z.bound
	r := int(z.guide[j])
	lo, hi := b[r], b[r+1]
	if u < lo || u >= hi { // a bound lies between u and its cell's centre
		for r < len(b)-2 && u >= b[r+1] {
			r++
		}
		for r > 0 && u < b[r] {
			r--
		}
		lo, hi = b[r], b[r+1]
	}
	if u-lo > tableEps*math.Abs(lo) && hi-u > tableEps*math.Abs(hi) {
		return uint64(r), true
	}
	return 0, false
}

// Zipf samples ranks in [0, N) with P(k) proportional to 1/(k+1)^S.
//
// Unlike math/rand's Zipf, this implementation supports any positive skew S,
// including S <= 1, which is the regime reported for cache and web-access
// popularity distributions. Sampling is ZipfShape's: Hörmann's
// rejection-inversion, served from an exact inversion table where the shape
// has one. It is a thin binding of a ZipfShape to an owned RNG; draw
// sequences are bit-identical to calling shape.Next(rng) directly.
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

// ParetoShape is a bounded Pareto distribution on [min, max] with shape
// alpha, independent of any RNG. It models document lengths, which are
// heavy-tailed in real corpora. Its two powers of the bounds are computed
// once, so a draw costs one math.Pow.
type ParetoShape struct {
	la, ha, negInvAlpha float64
}

// NewParetoShape returns the bounded Pareto shape on [min, max] with shape
// alpha. It panics unless 0 < min < max and alpha > 0.
func NewParetoShape(min, max, alpha float64) *ParetoShape {
	if !(min > 0 && max > min && alpha > 0) {
		panic("stats: Pareto requires 0 < min < max and alpha > 0")
	}
	return &ParetoShape{la: math.Pow(min, alpha), ha: math.Pow(max, alpha), negInvAlpha: -1 / alpha}
}

// Next returns a draw from rng by inversion; it consumes one output of rng.
func (p *ParetoShape) Next(rng *RNG) float64 {
	u := rng.Float64()
	return math.Pow(-(u*p.ha-u*p.la-p.ha)/(p.ha*p.la), p.negInvAlpha)
}
