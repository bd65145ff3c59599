package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// formulaZipf is ZipfShape's rejection-inversion loop with its own copy of
// the constants and of h and hInv: the definition of the distribution that
// the inversion table must reproduce draw for draw.
type formulaZipf struct {
	n                                             uint64
	s, oneMinusS, oneOverOneMS, hx0, hImax1, sDiv float64
}

func newFormulaZipf(n uint64, s float64) formulaZipf {
	z := formulaZipf{n: n, s: s, oneMinusS: 1 - s, oneOverOneMS: 1 / (1 - s)}
	z.hx0 = z.h(0.5) - math.Exp(-s*math.Log(1))
	z.hImax1 = z.h(float64(n) + 0.5)
	z.sDiv = 2 - z.hInv(z.h(1.5)-math.Exp(-s*math.Log(2)))
	return z
}

func (z formulaZipf) h(x float64) float64 {
	if math.Abs(z.oneMinusS) < 1e-9 {
		return math.Log(x)
	}
	return math.Exp(z.oneMinusS*math.Log(x)) * z.oneOverOneMS
}

func (z formulaZipf) hInv(x float64) float64 {
	if math.Abs(z.oneMinusS) < 1e-9 {
		return math.Exp(x)
	}
	return math.Exp(z.oneOverOneMS * math.Log(z.oneMinusS*x))
}

func (z formulaZipf) next(rng *RNG) uint64 {
	for {
		u := z.hImax1 + rng.Float64()*(z.hx0-z.hImax1)
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

// decisionPoints are the u values at which the formula's rank can change
// over the ranks a shape may tabulate: hx0, below which x = hInv(u) leaves
// the squeeze's reach, and h(k+0.5) for k = 1..min(n, 2^16).
func (z formulaZipf) decisionPoints() []float64 {
	k := int(min(z.n, 1<<16))
	pts := make([]float64, k+1)
	pts[0] = z.hx0
	for r := 1; r <= k; r++ {
		pts[r] = z.h(float64(r) + 0.5)
	}
	return pts
}

// rngYielding returns a generator whose next Float64 is m/2^53 (m < 2^53)
// and whose later draws continue from the state tail sets. It inverts one
// xorshift128+ step: with s1 = tail fixed, the output x + tail pins the new
// x, and the two xorshifts that made it from s0 are undone one at a time.
func rngYielding(m, tail uint64) RNG {
	out := m<<11 | tail&0x7ff
	w := (out - tail) ^ tail ^ (tail >> 26)
	t := w
	for i := 0; i < 4; i++ { // undo t ^= t >> 17
		t = w ^ (t >> 17)
	}
	x := t
	for i := 0; i < 3; i++ { // undo x ^= x << 23
		x = t ^ (x << 23)
	}
	return RNG{s0: x, s1: tail}
}

func TestRNGYielding(t *testing.T) {
	src := NewRNG(11)
	for i := 0; i < 1000; i++ {
		m, tail := src.Uint64()>>11, src.Uint64()
		r := rngYielding(m, tail)
		if got := r.Float64(); got != float64(m)/(1<<53) {
			t.Fatalf("m=%d tail=%#x: Float64 %v, want %v", m, tail, got, float64(m)/(1<<53))
		}
	}
}

// probeUnits are the offsets, in units of F = 2^-53 of Float64's range,
// at which checkZipfAgainstFormula draws around every decision point.
var probeUnits = []int64{0, 1, -1, 7, -7, 1 << 10, -1 << 10, 1 << 20, -1 << 20, 1 << 30, -1 << 30}

// checkZipfAgainstFormula requires NewZipfShape(n, s).Next to return what
// the formula returns and to leave the RNG in the same state: for a random
// stream from seed, and for draws that land at and around every decision
// point the shape may have tabulated.
func checkZipfAgainstFormula(t *testing.T, n uint64, s float64, seed uint64) {
	t.Helper()
	z, ref := NewZipfShape(n, s), newFormulaZipf(n, s)
	same := func(rng RNG) (got, want uint64, ok bool) {
		a, b := rng, rng
		got, want = z.Next(&a), ref.next(&b)
		return got, want, got == want && a == b
	}
	rng := NewRNG(seed)
	for i := 0; i < 4096; i++ {
		if got, want, ok := same(*rng); !ok {
			t.Fatalf("(n %d, s %v) draw %d of seed %d: Next %d, formula %d, or RNG states differ", n, s, i, seed, got, want)
		}
		z.Next(rng)
	}
	span := ref.hx0 - ref.hImax1
	for i, p := range ref.decisionPoints() {
		m := int64(math.Round((p - ref.hImax1) / span * (1 << 53)))
		for _, d := range probeUnits {
			if md := m + d; md >= 0 && md < 1<<53 {
				if got, want, ok := same(rngYielding(uint64(md), rng.Uint64())); !ok {
					t.Fatalf("(n %d, s %v) point %d (u %v) %+d F: Next %d, formula %d, or RNG states differ", n, s, i, p, d, got, want)
				}
			}
		}
	}
}

// FuzzZipfTableMatchesFormula fuzzes the shape (n, s) and the stream seed
// against the formula. The seed corpus holds the three shipped shapes, a
// skew whose low end is NaN (no table may be built), both sides of the
// s == 1 special case, low ends near and at u = 0 (hx0 changes sign near
// s = 0.3588), bounds that underflow, and shapes with one rank and with more
// ranks than the table holds.
func FuzzZipfTableMatchesFormula(f *testing.F) {
	for i, c := range []struct {
		n uint64
		s float64
	}{
		{3000, 0.9}, {32768, 1.8}, {6881280, 0.9}, {1000, 0.2},
		{1000, 1}, {400, 1 + 2e-9}, {400, 1 - 5e-10}, {100000, 1.1},
		{1 << 16, 0.36}, {1000, 0.35881425549501406}, {1000, 0.3588142554950141},
		{5000, 60}, {1, 0.5}, {2, 3},
	} {
		f.Add(c.n, c.s, uint64(i+1))
	}
	f.Fuzz(func(t *testing.T, n uint64, s float64, seed uint64) {
		if !(s > 0 && s <= 100) {
			t.Skip("skew outside (0, 100]")
		}
		checkZipfAgainstFormula(t, 1+(n-1)%(1<<23), s, seed)
	})
}

// TestZipfTableResolvesOutsideTheBand requires the table to serve every
// draw it can: each u below the last tabulated bound and more than tableEps
// from the bounds around it must resolve in the table, to the formula's
// rank. Only the band and the ranks past 2^16 are left to the formula.
func TestZipfTableResolvesOutsideTheBand(t *testing.T) {
	for _, c := range []struct {
		n uint64
		s float64
	}{{3000, 0.9}, {32768, 1.8}, {6881280, 0.9}, {1000, 1}, {100000, 1.1}} {
		z, ref := NewZipfShape(c.n, c.s), newFormulaZipf(c.n, c.s)
		if z.guide == nil {
			t.Fatalf("(n %d, s %v): no table", c.n, c.s)
		}
		pts := ref.decisionPoints()
		rng := NewRNG(c.n)
		served := 0
		for i := 0; i < 200_000; i++ {
			u := ref.hImax1 + rng.Float64()*(ref.hx0-ref.hImax1)
			r := sort.Search(len(pts), func(i int) bool { return pts[i] > u }) - 1 // pts[r] <= u < pts[r+1]
			if r < 0 || r >= len(pts)-1 || u-pts[r] <= tableEps*math.Abs(pts[r]) || pts[r+1]-u <= tableEps*math.Abs(pts[r+1]) {
				continue
			}
			got, ok := z.lookup(u)
			if !ok || got != uint64(r) {
				t.Fatalf("(n %d, s %v) u %v: table gave (%d, %v), want rank %d", c.n, c.s, u, got, ok, r)
			}
			served++
		}
		if served == 0 {
			t.Fatalf("(n %d, s %v): no draw inside the table", c.n, c.s)
		}
	}
}

var zipfSink uint64

// BenchmarkZipfShapeNext times one draw of each shape the simulator ships:
// the serving vocabulary (3000, 0.9), perlbench's heap (32768, 1.8) and the
// largest heap (6881280, 0.9), whose ranks past 2^16 take the formula.
func BenchmarkZipfShapeNext(b *testing.B) {
	for _, c := range []struct {
		n uint64
		s float64
	}{{3000, 0.9}, {32768, 1.8}, {6881280, 0.9}} {
		b.Run(fmt.Sprintf("n=%d/s=%v", c.n, c.s), func(b *testing.B) {
			z, rng := NewZipfShape(c.n, c.s), NewRNG(1)
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += z.Next(rng)
			}
			zipfSink = sum
		})
	}
}

// TestZipfSkewOneDrawsOnce holds the two laws an index build's corpus relies
// on to cut its term stream in two: skew 1.0 tabulates at every vocabulary
// (at one rank, two, the table's 2^16, one past it and far past it), and a
// tabulated shape's n draws advance its RNG exactly as Skip(n) does — the
// squeeze accepts every draw, in the table and past its last rank alike.
func TestZipfSkewOneDrawsOnce(t *testing.T) {
	for _, n := range []uint64{1, 2, 1 << 16, 1<<16 + 1, 1 << 20} {
		z := NewZipfShape(n, 1.0)
		if z.bound == nil {
			t.Fatalf("n=%d: skew 1.0 is not tabulated", n)
		}
		drawn, skipped := NewRNG(n), NewRNG(n)
		const draws = 200_000
		pastTable := 0
		for i := 0; i < draws; i++ {
			if z.Next(drawn) >= zipfTableMax {
				pastTable++
			}
		}
		skipped.Skip(draws)
		if *drawn != *skipped {
			t.Fatalf("n=%d: %d draws moved the RNG %+v, Skip(%d) %+v", n, draws, *drawn, draws, *skipped)
		}
		if n > 1<<17 && pastTable == 0 {
			t.Fatalf("n=%d: no draw fell past the table, so the formula's branch went unchecked", n)
		}
	}
}
