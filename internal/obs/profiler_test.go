package obs

import (
	"math"
	"reflect"
	"testing"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// testCore is a plausible core-model parameterization for estimator tests.
var testCore = cpu.CoreParams{
	Width: 4, FreqGHz: 2.5, MispredPenaltyCycles: 15,
	L2LatencyCycles: 12, L3LatencyCycles: 36, MemLatencyNS: 90,
	MemOverlap: 0.8, FEOverlap: 0.7, FEBandwidthCPI: 0.05, CoreStallCPI: 0.1,
}

// synthStream feeds n synthetic access/branch events with fixed hit-level
// and mispredict probabilities into the given profilers, so every profiler
// observes the identical event stream.
func synthStream(n int, seed uint64, profs ...*Profiler) {
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		a := trace.Access{Addr: rng.Uint64(), Size: 8}
		switch {
		case rng.Float64() < 0.5:
			a.Kind, a.Seg = trace.Fetch, trace.Code
		case rng.Float64() < 0.7:
			a.Kind, a.Seg = trace.Read, trace.Heap
		default:
			a.Kind, a.Seg = trace.Write, trace.Stack
		}
		lvl := cache.HitL1
		switch f := rng.Float64(); {
		case f < 0.02:
			lvl = cache.HitMemory
		case f < 0.06:
			lvl = cache.HitL3
		case f < 0.20:
			lvl = cache.HitL2
		}
		for _, p := range profs {
			p.ObserveAccess(a, lvl)
		}
		if i%4 == 0 {
			mis := rng.Float64() < 0.05
			for _, p := range profs {
				p.ObserveBranch(0, mis)
			}
		}
	}
}

func TestProfilerExhaustiveMatchesHandCount(t *testing.T) {
	p := NewProfiler(ProfilerConfig{Rate: 1, Seed: 1})

	// A tiny hand-checkable stream: 4 fetches (1 L2 hit, 1 memory), 4 reads
	// (1 L3 hit), 2 branches (1 mispredict).
	acc := func(kind trace.Kind, seg trace.Segment, lvl cache.HitLevel) {
		p.ObserveAccess(trace.Access{Kind: kind, Seg: seg, Size: 8}, lvl)
	}
	acc(trace.Fetch, trace.Code, cache.HitL1)
	acc(trace.Fetch, trace.Code, cache.HitL1)
	acc(trace.Fetch, trace.Code, cache.HitL2)
	acc(trace.Fetch, trace.Code, cache.HitMemory)
	acc(trace.Read, trace.Heap, cache.HitL1)
	acc(trace.Read, trace.Heap, cache.HitL1)
	acc(trace.Read, trace.Shard, cache.HitL1)
	acc(trace.Read, trace.Heap, cache.HitL3)
	p.ObserveBranch(0, false)
	p.ObserveBranch(0, true)

	const instr = 16
	est := p.Estimate(testCore, 30, 90, instr)

	if est.SampledAccesses != 8 || est.SampledBranches != 2 {
		t.Fatalf("sampled counts = %d accesses, %d branches; want 8, 2",
			est.SampledAccesses, est.SampledBranches)
	}
	// Per-kilo-instruction rates over 16 instructions.
	checks := []struct {
		name      string
		got, want float64
	}{
		{"L1IMPKI", est.L1IMPKI, 2.0 / instr * 1000},         // L2 hit + memory fetch
		{"L2InstrMPKI", est.L2InstrMPKI, 1.0 / instr * 1000}, // memory fetch
		{"L1DMPKI", est.L1DMPKI, 1.0 / instr * 1000},         // L3-hit read
		{"L3LoadMPKI", est.L3LoadMPKI, 1.0 / instr * 1000},
		{"BranchMPKI", est.BranchMPKI, 1.0 / instr * 1000},
		{"L3HitRate", est.L3HitRate, 0.5}, // one L3 hit, one memory fetch
		{"AMATNS", est.AMATNS, 0.5*30 + 0.5*90},
		{"code share", est.SegmentShare[trace.Code], 0.5},
		{"heap share", est.SegmentShare[trace.Heap], 3.0 / 8},
		{"shard share", est.SegmentShare[trace.Shard], 1.0 / 8},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
	if est.Breakdown.Sum() < 0.999 || est.Breakdown.Sum() > 1.001 {
		t.Errorf("breakdown sums to %g, want 1", est.Breakdown.Sum())
	}
	if est.IPC <= 0 {
		t.Errorf("IPC = %g, want positive", est.IPC)
	}
}

func TestProfilerSampledTracksExhaustive(t *testing.T) {
	exact := NewProfiler(ProfilerConfig{Rate: 1, Seed: 9})
	sampled := NewProfiler(ProfilerConfig{Rate: 0.1, Seed: 9})
	const n, instr = 400_000, 800_000
	synthStream(n, 1234, exact, sampled)

	e := exact.Estimate(testCore, 30, 90, instr)
	s := sampled.Estimate(testCore, 30, 90, instr)

	if s.SampledAccesses >= e.SampledAccesses/5 || s.SampledAccesses == 0 {
		t.Fatalf("10%% sampler attributed %d of %d accesses", s.SampledAccesses, e.SampledAccesses)
	}
	if s.Windows == 0 {
		t.Fatal("sampler opened no windows")
	}
	relClose := func(name string, got, want, tol float64) {
		if want == 0 {
			t.Fatalf("%s: exact value is zero", name)
		}
		if rel := math.Abs(got-want) / want; rel > tol {
			t.Errorf("%s = %g, exact %g (rel err %.3f > %.3f)", name, got, want, rel, tol)
		}
	}
	relClose("IPC", s.IPC, e.IPC, 0.05)
	relClose("L1IMPKI", s.L1IMPKI, e.L1IMPKI, 0.10)
	relClose("L3LoadMPKI", s.L3LoadMPKI, e.L3LoadMPKI, 0.15)
	relClose("BranchMPKI", s.BranchMPKI, e.BranchMPKI, 0.25)
	for i := 0; i < 6; i++ {
		got, want := breakdownSlots(s.Breakdown)[i], breakdownSlots(e.Breakdown)[i]
		if math.Abs(got-want) > 0.02 {
			t.Errorf("Top-Down category %d = %.4f, exact %.4f (> 2pp apart)", i, got, want)
		}
	}
}

// breakdownSlots flattens a Breakdown into its six category fractions.
func breakdownSlots(b cpu.Breakdown) [6]float64 {
	return [6]float64{b.Retiring, b.BadSpec, b.FELatency, b.FEBandwidth, b.BECore, b.BEMemory}
}

func TestProfilerDeterministic(t *testing.T) {
	run := func() FleetEstimate {
		p := NewProfiler(ProfilerConfig{Rate: 0.05, Seed: 7})
		synthStream(100_000, 42, p)
		return p.Estimate(testCore, 30, 90, 200_000)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different estimates:\n%+v\nvs\n%+v", a, b)
	}
}

func TestWindowSamplerDutyCycle(t *testing.T) {
	for _, rate := range []float64{0.02, 0.1, 0.5} {
		s := newWindowSampler(rate, stats.NewRNG(3))
		const n = 2_000_000
		observed := 0
		for i := 0; i < n; i++ {
			if s.observe() {
				observed++
			}
		}
		duty := float64(observed) / n
		if math.Abs(duty-rate)/rate > 0.10 {
			t.Errorf("rate %g: duty cycle %g off by more than 10%%", rate, duty)
		}
	}
}

func TestProfilerRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate did not panic")
		}
	}()
	NewProfiler(ProfilerConfig{Rate: 0})
}
