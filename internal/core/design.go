// Package core implements the paper's primary contribution as a reusable
// library: the state-sharing-enabled SoC cache hierarchy optimized for OLDI
// workloads (§IV). A Design couples a core count, an L3 allocation, and an
// optional latency-optimized eDRAM L4; an Evaluator scores designs under
// iso-area (and optionally iso-power) constraints using the calibrated
// performance, area, and power models, and Explore searches the design
// space the way §IV-B/§IV-C do. The evaluator takes hit rates from a
// HitCurve and IPC from one function of AMAT and code hit rate
// (Params.IPC): cmd/searchsim's explore passes the same perf model that
// draws Figures 9-11 and 14, the design-explorer example passes
// Equation 1.
package core

import (
	"fmt"
	"math"

	"searchmem/internal/model"
)

// Design is one SoC + package configuration.
type Design struct {
	// Cores is the core count.
	Cores int
	// L3MiB is the total shared L3 capacity.
	L3MiB float64
	// L4 is the optional on-package eDRAM cache (nil = none).
	L4 *model.L4Design
	// SMTWays is the SMT configuration (throughput multiplier via the
	// platform's SMT model).
	SMTWays int
}

// String implements fmt.Stringer.
func (d Design) String() string {
	s := fmt.Sprintf("%d cores, %.1f MiB L3, SMT-%d", d.Cores, d.L3MiB, d.SMTWays)
	if d.L4 != nil {
		s += fmt.Sprintf(", %d MiB L4 @ %.0f ns", d.L4.CapacityBytes>>20, d.L4.HitLatencyNS)
	}
	return s
}

// Validate reports whether the design is well-formed.
func (d Design) Validate() error {
	if d.Cores <= 0 {
		return fmt.Errorf("core: design needs cores")
	}
	if d.L3MiB <= 0 {
		return fmt.Errorf("core: design needs L3 capacity")
	}
	if d.SMTWays <= 0 {
		return fmt.Errorf("core: design needs SMT ways")
	}
	if d.L4 != nil {
		if err := d.L4.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// L3PerCoreMiB returns the L3 capacity per core.
func (d Design) L3PerCoreMiB() float64 { return d.L3MiB / float64(d.Cores) }

// HitCurve supplies workload hit rates as a function of capacity: the
// functional-simulation half of the paper's methodology. Implementations
// come from measured stack-distance profiles (internal/experiments) or any
// analytical stand-in.
type HitCurve interface {
	// DataHitRate returns the post-L2 data hit rate at an L3 capacity.
	DataHitRate(capacityBytes int64) float64
	// CodeHitRate returns the post-L2 instruction hit rate.
	CodeHitRate(capacityBytes int64) float64
	// L4HitRate returns the L4 hit rate at an L4 capacity behind the
	// given L3 capacity.
	L4HitRate(l4CapacityBytes, l3CapacityBytes int64) float64
}

// Params bundles the calibrated model constants an Evaluator needs.
type Params struct {
	// TL3NS and TMEMNS are the L3 and memory round-trip latencies.
	TL3NS, TMEMNS float64
	// IPC maps a design's post-L2 AMAT (ns) and its L3 code hit rate to
	// per-thread IPC (model.IPCFromAMAT ignores the code hit rate).
	IPC func(amatNS, codeHit float64) float64
	// SMTSpeedup returns the throughput multiplier for n SMT ways.
	SMTSpeedup func(n int) float64
	// CoreAreaMiB is one core's area in L3-equivalent MiB (~4 on PLT1).
	CoreAreaMiB float64
	// Power is the socket power model (§IV-C).
	Power model.PowerModel
}

// Evaluator scores designs.
type Evaluator struct {
	Curve  HitCurve
	Params Params
}

// Score is one design's evaluation.
type Score struct {
	Design Design
	// QPS is relative throughput (arbitrary units; compare ratios).
	QPS float64
	// AreaMiB is die area in L3-equivalent MiB.
	AreaMiB float64
	// AMATNS is the modeled post-L2 access time.
	AMATNS float64
	// RelPower is socket power relative to the power model's baseline.
	RelPower float64
}

// Evaluate scores one design.
func (e Evaluator) Evaluate(d Design) Score {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	l3 := int64(d.L3MiB * (1 << 20))
	hData := e.Curve.DataHitRate(l3)
	var amat float64
	if d.L4 != nil {
		hL4 := e.Curve.L4HitRate(d.L4.CapacityBytes, l3)
		amat = model.AMATWithL4(hData, hL4, e.Params.TL3NS,
			d.L4.HitLatencyNS, e.Params.TMEMNS, d.L4.MissPenaltyNS)
	} else {
		amat = model.AMATL3(hData, e.Params.TL3NS, e.Params.TMEMNS)
	}
	ipc := e.Params.IPC(amat, e.Curve.CodeHitRate(l3))
	smt := 1.0
	if e.Params.SMTSpeedup != nil {
		smt = e.Params.SMTSpeedup(d.SMTWays)
	}
	area := model.AreaModel{CoreAreaMiB: e.Params.CoreAreaMiB}
	s := Score{
		Design:  d,
		QPS:     float64(d.Cores) * ipc * smt,
		AreaMiB: area.Area(d.Cores, d.L3PerCoreMiB()),
		AMATNS:  amat,
	}
	base := e.Params.Power.SocketPower(e.Params.Power.BaselineCores)
	if base > 0 {
		s.RelPower = e.Params.Power.SocketPower(d.Cores) / base
	}
	return s
}

// Relative compares a Score with a baseline: the QPS improvement fraction
// and the relative energy per query (power/QPS, both relative to the
// baseline design).
func Relative(baseline, design Score) (improvement float64, energy float64) {
	improvement = model.Improvement(baseline.QPS, design.QPS)
	if baseline.QPS > 0 && baseline.RelPower > 0 {
		energy = model.EnergyPerQuery(design.RelPower/baseline.RelPower, design.QPS/baseline.QPS)
	}
	return improvement, energy
}

// Constraint restricts the design space during exploration.
type Constraint struct {
	// MaxAreaMiB bounds die area (iso-area uses the baseline's area).
	MaxAreaMiB float64
	// MaxRelPower bounds socket power relative to baseline (0 = none):
	// the paper's iso-power variant uses 1.0.
	MaxRelPower float64
}

// Explore sweeps core counts and per-core L3 allocations (and optionally L4
// capacities) under the constraint, returning the best design and the full
// frontier evaluated. The L3 allocation granularity is 0.25 MiB/core,
// matching Figure 10.
func (e Evaluator) Explore(baseline Design, cons Constraint, l4Sizes []int64) (best Score, frontier []Score) {
	if cons.MaxAreaMiB <= 0 {
		cons.MaxAreaMiB = e.Evaluate(baseline).AreaMiB
	}
	area := model.AreaModel{CoreAreaMiB: e.Params.CoreAreaMiB}
	baseScore := e.Evaluate(baseline)
	best = baseScore
	for cpc := 0.25; cpc <= 3.0+1e-9; cpc += 0.25 {
		n := int(math.Floor(area.CoresFor(cons.MaxAreaMiB, cpc)))
		if n < 1 {
			continue
		}
		l3 := float64(n) * cpc
		candidates := []Design{{Cores: n, L3MiB: l3, SMTWays: baseline.SMTWays}}
		for _, l4MiB := range l4Sizes {
			l4 := model.BaselineL4(l4MiB << 20)
			candidates = append(candidates, Design{
				Cores: n, L3MiB: l3, SMTWays: baseline.SMTWays, L4: &l4,
			})
		}
		for _, d := range candidates {
			s := e.Evaluate(d)
			if s.AreaMiB > cons.MaxAreaMiB+1e-9 {
				continue
			}
			if cons.MaxRelPower > 0 && s.RelPower > cons.MaxRelPower+1e-9 {
				continue
			}
			frontier = append(frontier, s)
			if s.QPS > best.QPS {
				best = s
			}
		}
	}
	return best, frontier
}
