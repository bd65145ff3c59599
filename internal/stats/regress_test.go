package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	l, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Slope-2) > 1e-12 || math.Abs(l.Intercept-1) > 1e-12 {
		t.Fatalf("got y = %v + %v x", l.Intercept, l.Slope)
	}
	if math.Abs(l.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v", l.R2)
	}
}

func TestFitLineRecoversPlantedLine(t *testing.T) {
	// Property: OLS recovers a planted line from noisy samples.
	prop := func(seed uint64) bool {
		r := NewRNG(seed)
		slope := 20*r.Float64() - 10
		intercept := 40*r.Float64() - 20
		xs := make([]float64, 500)
		ys := make([]float64, 500)
		for i := range xs {
			xs[i] = r.Float64() * 100
			ys[i] = intercept + slope*xs[i] + 1.74*(r.Float64()-0.5) // stddev 0.5
		}
		l, err := FitLine(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(l.Slope-slope) < 0.05 && math.Abs(l.Intercept-intercept) < 2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point must be degenerate")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant x must be degenerate")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestFitLineFlat(t *testing.T) {
	l, err := FitLine([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if l.Slope != 0 || l.Intercept != 5 || l.R2 != 1 {
		t.Fatalf("flat fit: %+v", l)
	}
}

func TestEvalRoundTrip(t *testing.T) {
	l := Line{Slope: -8.62e-3, Intercept: 1.78}
	// The paper's Equation 1 at AMAT = 50 ns.
	got := l.Eval(50)
	want := 1.78 - 8.62e-3*50
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
}
