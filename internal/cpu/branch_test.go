package cpu

import (
	"testing"

	"searchmem/internal/stats"
)

// accuracy is the fraction of s's predictions that were correct.
func accuracy(s *PredictorStats) float64 {
	return 1 - float64(s.Mispredicts)/float64(s.Predictions)
}

func TestGshareLearnsAlternation(t *testing.T) {
	p := NewGshare(12)
	s := PredictorStats{P: p}
	for i := 0; i < 4000; i++ {
		s.Observe(Branch{PC: 0x400100, Taken: i%2 == 0})
	}
	if accuracy(&s) < 0.95 {
		t.Fatalf("gshare should learn alternation via history, accuracy %v", accuracy(&s))
	}
}

func TestGshareLearnsShortPattern(t *testing.T) {
	p := NewGshare(14)
	s := PredictorStats{P: p}
	pattern := []bool{true, true, false, true, false, false}
	for i := 0; i < 12000; i++ {
		s.Observe(Branch{PC: 0x7f0040, Taken: pattern[i%len(pattern)]})
	}
	if accuracy(&s) < 0.9 {
		t.Fatalf("gshare accuracy on periodic pattern: %v", accuracy(&s))
	}
}

func TestPredictorsOnRandomBranches(t *testing.T) {
	// Data-dependent (random) branches bound the predictor near the base
	// rate — this is what gives search its high branch MPKI.
	rng := stats.NewRNG(5)
	outcomes := make([]bool, 20000)
	for i := range outcomes {
		outcomes[i] = rng.Bool(0.5)
	}
	s := PredictorStats{P: NewGshare(12)}
	rng2 := stats.NewRNG(9)
	for _, taken := range outcomes {
		pc := 0x400000 + rng2.Uint64n(64)*4
		s.Observe(Branch{PC: pc, Taken: taken})
	}
	if accuracy(&s) > 0.6 {
		t.Fatalf("gshare cannot beat 60%% on random outcomes, got %v", accuracy(&s))
	}
}

func TestPredictorPanicsOnBadBits(t *testing.T) {
	for _, f := range []func(){
		func() { NewGshare(0) },
		func() { NewGshare(30) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
