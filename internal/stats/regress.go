package stats

import "errors"

// Line is a fitted simple linear model y = Intercept + Slope*x.
//
// The paper's Equation 1 (IPC = -8.62e-3 * AMAT + 1.78) and its
// performance-area model are instances of this: experiments fit a Line to
// simulated (x, y) points and then extrapolate with Eval.
type Line struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination of the fit
}

// Eval returns the model's prediction at x.
func (l Line) Eval(x float64) float64 { return l.Intercept + l.Slope*x }

// ErrDegenerate is returned when a regression has no variance in x or too
// few points to determine a line.
var ErrDegenerate = errors.New("stats: degenerate regression input")

// FitLine computes the ordinary-least-squares line through (xs[i], ys[i]).
// It returns ErrDegenerate when fewer than two distinct x values exist.
func FitLine(xs, ys []float64) (Line, error) {
	if len(xs) != len(ys) {
		return Line{}, errors.New("stats: FitLine input length mismatch")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return Line{}, ErrDegenerate
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Line{}, ErrDegenerate
	}
	slope := sxy / sxx
	line := Line{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		line.R2 = 1 // all y equal: the flat line explains everything
	} else {
		ssRes := 0.0
		for i := range xs {
			r := ys[i] - line.Eval(xs[i])
			ssRes += r * r
		}
		line.R2 = 1 - ssRes/syy
	}
	return line, nil
}
