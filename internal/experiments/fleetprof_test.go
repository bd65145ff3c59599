package experiments

import "testing"

// fleetProfDefaultRate is the always-on fleet rate the acceptance bound
// (Top-Down within 2 pp of exact) is checked at.
const fleetProfDefaultRate = 0.10

// TestFleetProfSamplingConverges checks the experiment's headline claims:
// the rate-1.0 estimate is exactly the exhaustive profile (error zero by
// construction), estimator error shrinks monotonically as the sampling rate
// grows, and the Top-Down breakdown stays within 2 percentage points of
// exact at the default fleet rate.
func TestFleetProfSamplingConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("fleetprof measurement is slow in -short mode")
	}
	opts := Fast()
	opts.Seed = 7
	res := runFleetProfiles(NewContext(opts))

	if res.rates[0] != 1.0 {
		t.Fatalf("first rate is %g, want the exact reference 1.0", res.rates[0])
	}
	if err := res.topDownErrPP(0); err != 0 {
		t.Errorf("exact reference Top-Down error = %g pp, want exactly 0", err)
	}
	if err := res.rateErrFrac(0); err != 0 {
		t.Errorf("exact reference scalar error = %g, want exactly 0", err)
	}

	// Rates are listed descending, so error must be non-decreasing down the
	// list: sparser sampling can only get worse.
	for i := 1; i < len(res.rates); i++ {
		if res.topDownErrPP(i) < res.topDownErrPP(i-1) {
			t.Errorf("Top-Down error not monotone: r=%.2f gives %.3f pp < r=%.2f's %.3f pp",
				res.rates[i], res.topDownErrPP(i), res.rates[i-1], res.topDownErrPP(i-1))
		}
		if res.rateErrFrac(i) < res.rateErrFrac(i-1) {
			t.Errorf("scalar error not monotone: r=%.2f gives %.4f < r=%.2f's %.4f",
				res.rates[i], res.rateErrFrac(i), res.rates[i-1], res.rateErrFrac(i-1))
		}
	}

	for i, r := range res.rates {
		if r != fleetProfDefaultRate {
			continue
		}
		if err := res.topDownErrPP(i); err > 2.0 {
			t.Errorf("Top-Down error at default rate %.2f = %.3f pp, want <= 2", r, err)
		}
		if est := res.ests[i]; est.SampledAccesses == 0 || est.Windows == 0 {
			t.Errorf("default-rate estimate observed nothing: %+v", est)
		}
	}
}
