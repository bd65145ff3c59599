// Package model implements the paper's analytical performance models: the
// L3 average-memory-access-time formula (optionally extended with the L4),
// the linear IPC model of Equation 1, the performance-area model behind the
// cache-for-cores trade-off (§IV-B), and the power/energy accounting of
// §IV-C.
//
// The paper's methodology is explicitly hybrid: a functional cache
// simulator produces hit rates, and these closed-form models convert them
// to IPC and QPS. This package is the closed-form half.
package model

import (
	"fmt"
	"math"

	"searchmem/internal/stats"
)

// Equation1 is the paper's published fit (§III-D):
//
//	IPC = -8.62e-3 * AMAT_L3 + 1.78
//
// with AMAT in nanoseconds, measured on PLT1 between 50 and 70 ns.
var Equation1 = stats.Line{Slope: -8.62e-3, Intercept: 1.78}

// AMATL3 computes the paper's average memory access time seen past the L2:
//
//	AMAT_L3 = hL3*tL3 + (1-hL3)*tMEM
//
// hL3 is the L3 hit rate; tL3 and tMEM are the L3 and total round-trip
// memory latencies in nanoseconds.
func AMATL3(hL3, tL3, tMEM float64) float64 {
	return hL3*tL3 + (1-hL3)*tMEM
}

// AMATWithL4 extends AMATL3 with a memory-side L4: post-L3 misses hit the
// L4 with rate hL4 at tL4, and go to memory otherwise, paying missPenalty
// on top of tMEM when the L4 lookup is not overlapped with memory
// scheduling.
func AMATWithL4(hL3, hL4, tL3, tL4, tMEM, missPenalty float64) float64 {
	post := hL4*tL4 + (1-hL4)*(tMEM+missPenalty)
	return hL3*tL3 + (1-hL3)*post
}

// IPCFromAMAT applies Equation 1, clamped below at a small positive floor
// (the linear fit is only valid in-range; clamping keeps far extrapolations
// sane).
func IPCFromAMAT(amatNS float64) float64 {
	ipc := Equation1.Eval(amatNS)
	if ipc < 0.05 {
		ipc = 0.05
	}
	return ipc
}

// AreaModel maps between cores, L3 capacity, and die area in the paper's
// currency: "MiB of L3 cache" (1 core + private caches ≈ 4 MiB on PLT1).
type AreaModel struct {
	// CoreAreaMiB is the area of one core and its private caches.
	CoreAreaMiB float64
}

// Area returns total area (in L3-equivalent MiB) of n cores plus their L3:
// A = n*(s + c) with c MiB of L3 per core.
func (m AreaModel) Area(cores int, l3PerCoreMiB float64) float64 {
	return float64(cores) * (m.CoreAreaMiB + l3PerCoreMiB)
}

// CoresFor returns the (fractional) core count that fits in area A with
// l3PerCoreMiB of L3 per core.
func (m AreaModel) CoresFor(areaMiB, l3PerCoreMiB float64) float64 {
	return areaMiB / (m.CoreAreaMiB + l3PerCoreMiB)
}

// ThroughputModel converts a hierarchy operating point into relative QPS.
// QPS scales linearly with core count (Figure 2a validates this to 72
// cores) and with per-core IPC (Figure 8a validates the linear IPC-AMAT
// relation), modulated by the SMT speedup.
type ThroughputModel struct {
	// TL3NS and TMEMNS are the L3 and memory latencies.
	TL3NS, TMEMNS float64
	// IPCLine maps AMAT (ns) to IPC; usually Equation1, or a line refit
	// from simulation.
	IPCLine stats.Line
	// SMTSpeedup multiplies single-thread throughput; 1.0 when SMT off.
	SMTSpeedup float64
}

// Validate reports whether the model is usable.
func (m ThroughputModel) Validate() error {
	if m.TL3NS <= 0 || m.TMEMNS <= m.TL3NS {
		return fmt.Errorf("model: need 0 < tL3 < tMEM")
	}
	if m.SMTSpeedup <= 0 {
		return fmt.Errorf("model: SMT speedup must be positive")
	}
	return nil
}

// QPS returns relative throughput for cores running at the given L3 hit
// rate (no L4).
func (m ThroughputModel) QPS(cores float64, hL3 float64) float64 {
	return m.QPSWithL4(cores, hL3, 0, 0, 0)
}

// QPSWithL4 returns relative throughput with an L4 configured: hL4 and
// tL4NS describe it; l4MissPenaltyNS is the unoverlapped lookup cost.
// Passing hL4 = 0 with tL4NS = 0 reduces to the no-L4 model.
func (m ThroughputModel) QPSWithL4(cores float64, hL3, hL4, tL4NS, l4MissPenaltyNS float64) float64 {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	amat := AMATWithL4(hL3, hL4, m.TL3NS, tL4NS, m.TMEMNS, l4MissPenaltyNS)
	ipc := m.IPCLine.Eval(amat)
	if ipc < 0.05 {
		ipc = 0.05
	}
	return cores * ipc * m.SMTSpeedup
}

// Improvement returns (new-old)/old as a fraction.
func Improvement(oldQPS, newQPS float64) float64 {
	if oldQPS == 0 {
		return 0
	}
	return (newQPS - oldQPS) / oldQPS
}

// PowerModel is the first-order socket power accounting of §IV-C.
type PowerModel struct {
	// SocketWatts is the baseline socket power at BaselineCores.
	SocketWatts float64
	// BaselineCores is the core count of the measured baseline.
	BaselineCores int
	// CorePowerFrac is one core's share of baseline socket power
	// (3.77% measured on PLT1).
	CorePowerFrac float64
}

// SocketPower returns modeled socket power with the given core count
// (uncore power held constant, cores scaled linearly, as the paper
// measures).
func (p PowerModel) SocketPower(cores int) float64 {
	uncore := p.SocketWatts * (1 - float64(p.BaselineCores)*p.CorePowerFrac)
	return uncore + float64(cores)*p.CorePowerFrac*p.SocketWatts
}

// EnergyPerQuery returns relative energy per query given relative power and
// relative QPS (both normalized to a baseline of 1.0).
func EnergyPerQuery(relPower, relQPS float64) float64 {
	if relQPS <= 0 {
		return math.Inf(1)
	}
	return relPower / relQPS
}
