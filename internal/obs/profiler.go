package obs

import (
	"fmt"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
	"searchmem/internal/model"
	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// GWP-style sampling profiler. The paper's fleet characterization (§II,
// Table I, Figure 3) comes from Google-Wide Profiling: cheap always-on
// counters run everywhere, while expensive attribution (which cache level
// served an access, whether a branch mispredicted, which segment an address
// belongs to) is collected only inside short sampling windows, and fleet
// profiles are reconstructed from the samples. The Profiler reproduces that
// methodology against the simulated leaf: it watches the same per-access /
// per-branch event streams the exhaustive measurement sees, but attributes
// only a configurable fraction of them, then scales sampled rates back up
// using the always-on totals (the GWP "ground truth" counters).
//
// Sampling is windowed, not per-event: real profilers turn collection on
// for short bursts to amortize attribution cost, which also means samples
// are correlated within a window — exactly the estimator-variance behavior
// the fleetprof experiment quantifies. Window placement is drawn from a
// seeded stats.RNG, so a given (seed, rate, event stream) produces one
// deterministic set of windows. The Profiler is single-goroutine like the
// measurement loop that drives it.

// ProfilerConfig configures one sampling profiler.
type ProfilerConfig struct {
	// Rate is the target fraction of events attributed, in (0, 1]. 1 means
	// exhaustive observation (every event attributed): the exact reference
	// the fleetprof experiment compares sampled estimates against.
	Rate float64
	// Seed places the sampling windows.
	Seed uint64
}

const (
	// windowEvents is the length of one sampling window in events.
	windowEvents = 256
	// recordWindows caps how many access-stream sampling windows are
	// remembered for trace export (EmitTrace): enough for a readable trace
	// without unbounded span growth at high rates.
	recordWindows = 512
)

// Profiler reconstructs fleet workload estimates from sampled observation
// of a simulated leaf's access and branch streams.
type Profiler struct {
	rate     float64
	accWin   windowSampler
	brWin    windowSampler
	totals   profTotals
	samples  profSamples
	segments [trace.NumSegments]int64
	// Recorded access-stream window intervals for trace export (event
	// indices; end < 0 while a window is still open).
	recOpen  bool
	recorded []windowInterval
}

// windowInterval is one recorded sampling window in access-event indices.
type windowInterval struct{ start, end int64 }

// profTotals are the cheap always-on counters: maintained on every event
// regardless of sampling state.
type profTotals struct {
	accesses, branches int64
}

// profSamples are the expensive attributed counters: maintained only for
// events that fall inside a sampling window.
type profSamples struct {
	accesses    int64 // attributed accesses
	fetchL1Miss int64 // Fetch served beyond L1 (L1-I misses)
	fetchL2Miss int64 // Fetch served beyond L2 (L2 instruction misses)
	fetchL3Miss int64 // Fetch served beyond L3 (memory instruction fetches)
	dataL1Miss  int64 // Read/Write served beyond L1
	dataL2Miss  int64 // Read/Write served beyond L2 (L3 data accesses)
	l3Accesses  int64 // any kind served at or beyond L3
	l3Hits      int64 // any kind served exactly at L3
	branches    int64 // attributed branches
	mispredicts int64 // attributed mispredicted branches
}

// NewProfiler returns a profiler sampling at cfg.Rate.
func NewProfiler(cfg ProfilerConfig) *Profiler {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("obs: profiler rate must be positive, got %g", cfg.Rate))
	}
	if cfg.Rate > 1 {
		cfg.Rate = 1
	}
	rng := stats.NewRNG(cfg.Seed)
	return &Profiler{
		rate:   cfg.Rate,
		accWin: newWindowSampler(cfg.Rate, rng.Split()),
		brWin:  newWindowSampler(cfg.Rate, rng.Split()),
	}
}

// ObserveAccess feeds one memory access and the hierarchy level that served
// it. The access always advances the cheap counters; attribution happens
// only inside a sampling window.
func (p *Profiler) ObserveAccess(a trace.Access, lvl cache.HitLevel) {
	p.totals.accesses++
	attributed := p.accWin.observe()
	if attributed != p.recOpen {
		idx := p.totals.accesses - 1
		if attributed {
			if len(p.recorded) < recordWindows {
				p.recorded = append(p.recorded, windowInterval{start: idx, end: -1})
			}
		} else if n := len(p.recorded); n > 0 && p.recorded[n-1].end < 0 {
			p.recorded[n-1].end = idx
		}
		p.recOpen = attributed
	}
	if !attributed {
		return
	}
	s := &p.samples
	s.accesses++
	p.segments[a.Seg]++
	if a.Kind == trace.Fetch {
		if lvl >= cache.HitL2 {
			s.fetchL1Miss++
		}
		if lvl >= cache.HitL3 {
			s.fetchL2Miss++
		}
		if lvl > cache.HitL3 {
			s.fetchL3Miss++
		}
	} else {
		if lvl >= cache.HitL2 {
			s.dataL1Miss++
		}
		if lvl >= cache.HitL3 {
			s.dataL2Miss++
		}
	}
	if lvl >= cache.HitL3 {
		s.l3Accesses++
		if lvl == cache.HitL3 {
			s.l3Hits++
		}
	}
}

// ObserveBranch feeds one conditional-branch outcome.
func (p *Profiler) ObserveBranch(thread uint8, mispredict bool) {
	_ = thread // streams are merged fleet-style; the thread id is not an estimate dimension
	p.totals.branches++
	if !p.brWin.observe() {
		return
	}
	p.samples.branches++
	if mispredict {
		p.samples.mispredicts++
	}
}

// Windows returns how many sampling windows were opened across both event
// streams.
func (p *Profiler) Windows() int64 { return p.accWin.windows + p.brWin.windows }

// FleetEstimate is a Table I / Figure 3-style profile reconstructed from
// samples.
type FleetEstimate struct {
	// IPC and Breakdown come from the same core model as the exhaustive
	// measurement, fed with sampled event rates.
	IPC       float64
	Breakdown cpu.Breakdown
	// Per-kilo-instruction rates (Table I's rows).
	BranchMPKI, L1IMPKI, L1DMPKI, L2InstrMPKI, L3LoadMPKI float64
	// L3HitRate and AMATNS feed the AMAT model.
	L3HitRate, AMATNS float64
	// SegmentShare is the fraction of sampled accesses per segment
	// (Figure 4-style attribution).
	SegmentShare [trace.NumSegments]float64
	// Sample accounting: how much observation the estimate rests on.
	SampledAccesses, SampledBranches, Windows int64
}

// Estimate reconstructs the fleet profile. Sampled per-event rates are
// rescaled to per-instruction rates through the always-on totals and the
// externally supplied instruction count (the one counter the access stream
// cannot carry), then run through the calibrated core model exactly as the
// exhaustive path does.
func (p *Profiler) Estimate(core cpu.CoreParams, l3LatencyNS, memLatencyNS float64, instructions int64) FleetEstimate {
	if instructions <= 0 {
		panic("obs: Estimate needs a positive instruction count")
	}
	s := p.samples
	est := FleetEstimate{
		SampledAccesses: s.accesses,
		SampledBranches: s.branches,
		Windows:         p.Windows(),
	}

	// Per-instruction scale factors from the always-on counters.
	accPerInstr := float64(p.totals.accesses) / float64(instructions)
	brPerInstr := float64(p.totals.branches) / float64(instructions)

	perInstr := func(sampled int64) float64 {
		if s.accesses == 0 {
			return 0
		}
		return float64(sampled) / float64(s.accesses) * accPerInstr
	}
	rates := cpu.EventRates{
		L1IMisses: perInstr(s.fetchL1Miss),
		L2IMisses: perInstr(s.fetchL2Miss),
		L3IMisses: perInstr(s.fetchL3Miss),
		L1DMisses: perInstr(s.dataL1Miss),
		L2DMisses: perInstr(s.dataL2Miss),
	}
	if s.branches > 0 {
		rates.BranchMispredicts = float64(s.mispredicts) / float64(s.branches) * brPerInstr
	}
	if s.l3Accesses > 0 {
		est.L3HitRate = float64(s.l3Hits) / float64(s.l3Accesses)
	}
	est.AMATNS = model.AMATL3(est.L3HitRate, l3LatencyNS, memLatencyNS)
	rates.L3AMATNS = est.AMATNS

	est.BranchMPKI = rates.BranchMispredicts * 1000
	est.L1IMPKI = rates.L1IMisses * 1000
	est.L1DMPKI = rates.L1DMisses * 1000
	est.L2InstrMPKI = rates.L2IMisses * 1000
	est.L3LoadMPKI = rates.L2DMisses * 1000
	if s.accesses > 0 {
		for i, n := range p.segments {
			est.SegmentShare[i] = float64(n) / float64(s.accesses)
		}
	}
	est.Breakdown, est.IPC = core.Evaluate(rates)
	return est
}

// EmitTrace records the profiler's access-stream sampling schedule as one
// trace: a root span covering the whole stream, with one child span per
// recorded window (capped at recordWindows). Timestamps are
// access-event indices — the profiler's native clock — carried in the
// trace's nanosecond fields.
func (p *Profiler) EmitTrace(t *Tracer, name string) {
	tb := t.Begin(name)
	if tb == nil {
		return
	}
	total := p.totals.accesses
	root := tb.Span(0, "access-stream", 0, float64(total),
		Float("rate", p.rate),
		Int("attributed", p.samples.accesses),
		Int("windows", p.Windows()))
	for i, w := range p.recorded {
		end := w.end
		if end < 0 {
			end = total // window still open at end of stream
		}
		tb.Span(root, fmt.Sprintf("window[%d]", i), float64(w.start), float64(end))
	}
	if int64(len(p.recorded)) < p.accWin.windows {
		tb.Span(root, "windows-truncated", float64(total), float64(total),
			Int("recorded", int64(len(p.recorded))),
			Int("opened", p.accWin.windows))
	}
	tb.Finish()
}

// windowSampler decides, one event at a time, whether the event falls in a
// sampling window. Windows are fixed-length; the gaps between them are drawn
// uniformly in [0, 2·mean] so the long-run duty cycle converges to rate
// while window placement stays randomized (GWP's periodic-with-jitter
// collection).
type windowSampler struct {
	rng       *stats.RNG
	meanGap   float64
	inWindow  bool
	remaining int64
	windows   int64
	always    bool
}

// newWindowSampler returns a sampler with rate duty cycle and windowEvents
// windows, with the first window's phase randomized.
func newWindowSampler(rate float64, rng *stats.RNG) windowSampler {
	s := windowSampler{
		rng:     rng,
		meanGap: float64(windowEvents) * (1 - rate) / rate,
		always:  rate >= 1,
	}
	if s.always {
		s.windows = 1
		return s
	}
	// Random initial phase up to one full gap, so same-rate profilers with
	// different seeds observe different portions of the stream.
	s.remaining = s.nextGap()
	return s
}

// observe advances the event clock by one and reports whether the event is
// attributed.
func (s *windowSampler) observe() bool {
	if s.always {
		return true
	}
	for s.remaining == 0 {
		s.inWindow = !s.inWindow
		if s.inWindow {
			s.windows++
			s.remaining = windowEvents
		} else {
			s.remaining = s.nextGap()
		}
	}
	s.remaining--
	return s.inWindow
}

// nextGap draws the next inter-window gap (possibly zero at high rates).
func (s *windowSampler) nextGap() int64 {
	return int64(s.rng.Uint64n(uint64(2*s.meanGap) + 1))
}
