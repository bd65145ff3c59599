// Package platform defines the two hardware platforms the paper evaluates
// (Table II): PLT1, an Intel Haswell-class 2-socket server, and PLT2, an
// IBM POWER8-class one, together with the calibrated core and SMT models
// used to turn simulated miss rates into performance.
package platform

import (
	"fmt"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
)

// Platform is one hardware configuration.
type Platform struct {
	// Name and Microarch identify the platform ("PLT1", "Intel Haswell").
	Name, Microarch string
	// Sockets and CoresPerSocket give the machine shape.
	Sockets, CoresPerSocket int
	// SMTWays is the maximum hardware threads per core.
	SMTWays int
	// CacheBlock is the line size in bytes at every level.
	CacheBlock int
	// L1I, L1D, L2 are per-core cache configurations.
	L1I, L1D, L2 cache.Config
	// L3 is the shared per-socket cache.
	L3 cache.Config
	// L3Inclusive reports whether the L3 maintains inclusion (true on
	// PLT1, the source of the back-invalidation effects noted in §IV-B).
	L3Inclusive bool
	// Core is the calibrated Top-Down core model.
	Core cpu.CoreParams
	// SMT is the calibrated SMT throughput model.
	SMT cpu.SMTModel
	// SmallPage and HugePage are the OS page sizes (Figure 2c).
	SmallPage, HugePage int
	// TLB describes the small-page TLB; the huge-page variant swaps the
	// page size.
	TLB cpu.TLBConfig
	// L3LatencyNS and MemLatencyNS feed the AMAT model (tL3 and tMEM).
	L3LatencyNS, MemLatencyNS float64
	// MemPeakGBs is the socket's peak DRAM bandwidth, the denominator of
	// the §II-D bandwidth-utilization contrast.
	MemPeakGBs float64
	// CoreAreaL3MiB is the die area of one core plus private caches
	// expressed in MiB of L3 (the paper measures ~4 MiB from Haswell die
	// photos, the unit of Figure 9's x-axis).
	CoreAreaL3MiB float64
	// CorePowerFrac is one core's share of baseline socket power (the
	// paper measures 3.77% on PLT1).
	CorePowerFrac float64
}

// PLT1 returns the Intel Haswell-class platform of Table II.
func PLT1() Platform {
	return Platform{
		Name:           "PLT1",
		Microarch:      "Intel Haswell",
		Sockets:        2,
		CoresPerSocket: 18,
		SMTWays:        2,
		CacheBlock:     64,
		L1I:            cache.Config{Name: "L1-I", Size: 32 << 10, BlockSize: 64, Assoc: 8},
		L1D:            cache.Config{Name: "L1-D", Size: 32 << 10, BlockSize: 64, Assoc: 8},
		L2:             cache.Config{Name: "L2", Size: 256 << 10, BlockSize: 64, Assoc: 8},
		L3:             cache.Config{Name: "L3", Size: 45 << 20, BlockSize: 64, Assoc: 20},
		L3Inclusive:    true,
		Core: cpu.CoreParams{
			// Calibrated against the paper's Figure 3 breakdown at
			// CPI 0.78 (see internal/cpu tests).
			Width:                4,
			FreqGHz:              2.5,
			MispredPenaltyCycles: 12.7,
			L2LatencyCycles:      12,
			L3LatencyCycles:      36,
			MemLatencyNS:         65,
			MemOverlap:           0.078,
			FEOverlap:            0.143,
			FEBandwidthCPI:       0.076,
			CoreStallCPI:         0.066,
		},
		// SMT-2 measured at +37% (Figure 2b): 2/1.37 - 1 = 0.46.
		SMT:       cpu.SMTModel{A: 0.46},
		SmallPage: 4 << 10,
		HugePage:  2 << 20,
		TLB: cpu.TLBConfig{
			PageSize:  4 << 10,
			L1Entries: 64, L1Assoc: 4,
			L2Entries: 1024, L2Assoc: 8,
			WalkLatencyNS: 30,
			L2LatencyNS:   3,
		},
		L3LatencyNS:   14.4, // 36 cycles at 2.5 GHz
		MemLatencyNS:  65,
		MemPeakGBs:    68,
		CoreAreaL3MiB: 4,
		CorePowerFrac: 0.0377,
	}
}

// PLT2 returns the IBM POWER8-class platform of Table II.
func PLT2() Platform {
	p := Platform{
		Name:           "PLT2",
		Microarch:      "IBM POWER8",
		Sockets:        2,
		CoresPerSocket: 12,
		SMTWays:        8,
		CacheBlock:     128,
		L1I:            cache.Config{Name: "L1-I", Size: 32 << 10, BlockSize: 128, Assoc: 8},
		L1D:            cache.Config{Name: "L1-D", Size: 64 << 10, BlockSize: 128, Assoc: 8},
		L2:             cache.Config{Name: "L2", Size: 512 << 10, BlockSize: 128, Assoc: 8},
		L3:             cache.Config{Name: "L3", Size: 96 << 20, BlockSize: 128, Assoc: 8},
		L3Inclusive:    false,
		Core: cpu.CoreParams{
			Width:                8,
			FreqGHz:              3.5,
			MispredPenaltyCycles: 15,
			L2LatencyCycles:      13,
			L3LatencyCycles:      27,
			MemLatencyNS:         80,
			MemOverlap:           0.06,
			FEOverlap:            0.10,
			FEBandwidthCPI:       0.05,
			CoreStallCPI:         0.05,
		},
		SmallPage: 64 << 10,
		HugePage:  16 << 20,
		TLB: cpu.TLBConfig{
			PageSize:  64 << 10,
			L1Entries: 48, L1Assoc: 4,
			L2Entries: 1024, L2Assoc: 8,
			WalkLatencyNS: 40,
			L2LatencyNS:   4,
		},
		L3LatencyNS:   7.7, // 27 cycles at 3.5 GHz
		MemLatencyNS:  80,
		MemPeakGBs:    230, // 8 buffered memory channels per socket
		CoreAreaL3MiB: 6,
		CorePowerFrac: 0.05,
	}
	// SMT-2 = 1.76x and SMT-8 = 3.24x (Figure 2b).
	smt, err := cpu.FitSMT(map[int]float64{2: 1.76, 8: 3.24})
	if err != nil {
		panic(err)
	}
	p.SMT = smt
	return p
}

// Hierarchy builds a cache.HierarchyConfig for running cores on one socket
// of the platform with the given SMT ways and an optional L3 way partition
// (CAT; 0 = all ways).
func (p Platform) Hierarchy(cores, smtWays, l3Ways int) cache.HierarchyConfig {
	if cores <= 0 || cores > p.CoresPerSocket*p.Sockets {
		panic(fmt.Sprintf("platform %s: %d cores out of range", p.Name, cores))
	}
	if smtWays <= 0 || smtWays > p.SMTWays {
		panic(fmt.Sprintf("platform %s: SMT-%d unsupported", p.Name, smtWays))
	}
	l3 := p.L3
	if l3Ways > 0 {
		if l3Ways > l3.Assoc {
			panic(fmt.Sprintf("platform %s: %d L3 ways > %d", p.Name, l3Ways, l3.Assoc))
		}
		l3.AllocWays = l3Ways
	}
	return cache.HierarchyConfig{
		Cores:          cores,
		ThreadsPerCore: smtWays,
		L1I:            p.L1I,
		L1D:            p.L1D,
		L2:             p.L2,
		L3:             l3,
		L3Inclusive:    p.L3Inclusive,
	}
}

// HierarchyWithL3Size is Hierarchy with an explicit L3 capacity (used by
// capacity sweeps); associativity is preserved when it divides the size,
// otherwise the cache falls back to 16 ways.
func (p Platform) HierarchyWithL3Size(cores, smtWays int, l3Size int64) cache.HierarchyConfig {
	cfg := p.Hierarchy(cores, smtWays, 0)
	l3 := cfg.L3
	l3.Size = l3Size
	l3.AllocWays = 0
	if l3Size/int64(l3.BlockSize)%int64(l3.Assoc) != 0 {
		l3.Assoc = 16
	}
	if err := l3.Validate(); err != nil {
		panic(err)
	}
	cfg.L3 = l3
	return cfg
}

// ScaleCaches returns a copy of the platform with every cache capacity
// divided by factor (the experiment scale knob of DESIGN.md §6). Block
// sizes and associativities are preserved; capacities are floored at one
// set.
func (p Platform) ScaleCaches(factor int) Platform {
	if factor <= 0 {
		panic("platform: scale factor must be positive")
	}
	scale := func(c cache.Config) cache.Config {
		c.Size = max(c.Size/int64(factor), int64(c.BlockSize))
		return c.RoundToSets()
	}
	p.L1I = scale(p.L1I)
	p.L1D = scale(p.L1D)
	p.L2 = scale(p.L2)
	p.L3 = scale(p.L3)
	return p
}

// TotalCores returns the machine's core count across sockets.
func (p Platform) TotalCores() int { return p.Sockets * p.CoresPerSocket }

// TLBFor returns the TLB configuration for the given page size.
func (p Platform) TLBFor(pageSize int) cpu.TLBConfig {
	t := p.TLB
	t.PageSize = pageSize
	return t
}
