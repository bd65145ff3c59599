package stats

import (
	"math"
	"testing"
	"time"
)

func TestZipfRange(t *testing.T) {
	for _, s := range []float64{0.5, 0.8, 0.99, 1.0, 1.2, 2.0} {
		z := NewZipf(NewRNG(1), 1000, s)
		for i := 0; i < 10000; i++ {
			v := z.Next()
			if v >= 1000 {
				t.Fatalf("s=%v: sample %d out of range", s, v)
			}
		}
	}
}

func TestZipfMonotoneFrequencies(t *testing.T) {
	// Rank 0 must be the most popular, with frequency decreasing in rank
	// (checked on coarse rank groups to avoid sampling noise).
	z := NewZipf(NewRNG(2), 1024, 0.9)
	counts := make([]int, 1024)
	for i := 0; i < 300000; i++ {
		counts[z.Next()]++
	}
	group := func(lo, hi int) int {
		s := 0
		for i := lo; i < hi; i++ {
			s += counts[i]
		}
		return s
	}
	g0 := group(0, 8)
	g1 := group(8, 64)
	g2 := group(64, 512)
	if !(g0 > 0 && g1 > 0 && g2 > 0) {
		t.Fatal("some rank groups never sampled")
	}
	// Per-item frequency must decrease across groups.
	f0 := float64(g0) / 8
	f1 := float64(g1) / 56
	f2 := float64(g2) / 448
	if !(f0 > f1 && f1 > f2) {
		t.Fatalf("per-rank frequency not decreasing: %v %v %v", f0, f1, f2)
	}
}

func TestZipfSkewConcentration(t *testing.T) {
	// Higher skew concentrates more mass on low ranks.
	top100 := func(s float64) float64 {
		z := NewZipf(NewRNG(3), 100000, s)
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if z.Next() < 100 {
				hits++
			}
		}
		return float64(hits) / n
	}
	lo, hi := top100(0.6), top100(1.2)
	if hi <= lo {
		t.Fatalf("skew 1.2 top-100 mass %v <= skew 0.6 mass %v", hi, lo)
	}
}

func TestZipfCDFAgainstExpected(t *testing.T) {
	// For small N the empirical distribution must match the analytic pmf.
	const n, s = 16, 1.0
	z := NewZipfCDF(NewRNG(4), n, s)
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	var norm float64
	for i := 1; i <= n; i++ {
		norm += 1 / float64(i)
	}
	for i := 0; i < n; i++ {
		want := 1 / (float64(i+1) * norm)
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("rank %d: empirical %v vs analytic %v", i, got, want)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exponential(4.0)
		if v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-4.0) > 0.1 {
		t.Fatalf("exponential mean %v, want ~4", mean)
	}
}

// formulaPareto is the bounded-Pareto inversion written out with both
// powers of the bounds taken per draw: the definition ParetoShape must
// reproduce bit for bit.
func formulaPareto(r *RNG, min, max, alpha float64) float64 {
	u := r.Float64()
	la, ha := math.Pow(min, alpha), math.Pow(max, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// TestParetoShapeMatchesFormula: a shape draws bit-identically to the
// formula over several bounds and alphas (the corpus's among them), and
// consumes exactly one output per draw.
func TestParetoShapeMatchesFormula(t *testing.T) {
	for _, c := range []struct{ min, max, alpha float64 }{
		{64.0 / 3, 64 * 12, 1.75}, {1.0 / 3, 12, 1.75}, {2, 1000, 1.1}, {1, 1e6, 0.8}, {0.5, 0.75, 3},
	} {
		p := NewParetoShape(c.min, c.max, c.alpha)
		got, want := NewRNG(99), NewRNG(99)
		for i := 0; i < 10000; i++ {
			g, w := p.Next(got), formulaPareto(want, c.min, c.max, c.alpha)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%+v draw %d: %v, formula %v", c, i, g, w)
			}
		}
		if *got != *want {
			t.Fatalf("%+v: the shape consumed a different number of outputs than the formula", c)
		}
	}
	for _, bad := range [][3]float64{{0, 1, 1}, {2, 2, 1}, {1, 2, 0}, {math.NaN(), 2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewParetoShape%v did not panic", bad)
				}
			}()
			NewParetoShape(bad[0], bad[1], bad[2])
		}()
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRNG(7)
	p := NewParetoShape(2, 1000, 1.1)
	for i := 0; i < 10000; i++ {
		v := p.Next(r)
		if v < 2 || v > 1000 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// A smaller alpha must give a heavier tail (higher p99).
	p99 := func(alpha float64) float64 {
		r := NewRNG(8)
		p := NewParetoShape(1, 1e6, alpha)
		sample := make([]float64, 20000)
		for i := range sample {
			sample[i] = p.Next(r)
		}
		return ExactQuantile(sample, 0.99)
	}
	if p99(0.8) <= p99(2.0) {
		t.Fatal("lower alpha did not produce heavier tail")
	}
}

// TestZipfPanics pins the constructors' rejections, including the skews
// (NaN, +Inf, 1e5) whose rejection-inversion constants are not finite and
// whose draws would never end. Each case runs on its own goroutine and also
// draws once, so a skew that is accepted again fails here instead of hanging
// the package.
func TestZipfPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"n == 0", func() { NewZipf(NewRNG(1), 0, 1).Next() }},
		{"s == 0", func() { NewZipf(NewRNG(1), 10, 0).Next() }},
		{"s < 0", func() { NewZipf(NewRNG(1), 10, -1).Next() }},
		{"s NaN", func() { NewZipf(NewRNG(1), 10, math.NaN()).Next() }},
		{"s +Inf", func() { NewZipf(NewRNG(1), 10, math.Inf(1)).Next() }},
		{"s 1e5", func() { NewZipf(NewRNG(1), 10, 1e5).Next() }},
		{"ZipfCDF n == 0", func() { NewZipfCDF(NewRNG(1), 0, 1) }},
	} {
		panicked := make(chan bool, 1)
		go func() {
			defer func() { panicked <- recover() != nil }()
			c.f()
		}()
		select {
		case ok := <-panicked:
			if !ok {
				t.Fatalf("%s: expected a panic", c.name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no panic and no draw after 10 s", c.name)
		}
	}
}
