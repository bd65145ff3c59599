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
// sane). It is the one evaluation of Equation 1 in the module: Figure 2a,
// figT1 and the design-explorer example all reach it.
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

// Improvement returns (new-old)/old as a fraction.
func Improvement(oldQPS, newQPS float64) float64 {
	if oldQPS == 0 {
		return 0
	}
	return (newQPS - oldQPS) / oldQPS
}

// socketWatts is the baseline socket power at PowerModel.BaselineCores,
// PLT1's 145 W (§IV-C).
const socketWatts = 145.0

// PowerModel is the first-order socket power accounting of §IV-C.
type PowerModel struct {
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
	uncore := socketWatts * (1 - float64(p.BaselineCores)*p.CorePowerFrac)
	return uncore + float64(cores)*p.CorePowerFrac*socketWatts
}

// EnergyPerQuery returns relative energy per query given relative power and
// relative QPS (both normalized to a baseline of 1.0).
func EnergyPerQuery(relPower, relQPS float64) float64 {
	if relQPS <= 0 {
		return math.Inf(1)
	}
	return relPower / relQPS
}
