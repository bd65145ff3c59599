// Package mem models the main-memory system below the cache hierarchy as a
// trace-driven tiered subsystem, replacing the platform's flat MemLatencyNS
// constant for post-L4 traffic. It is the only model of DRAM device timing.
//
// The paper stops its hierarchy at the on-package eDRAM L4 and treats DRAM
// as a single 65 ns device; its central question — where should the search
// shard's bytes live? — extends naturally below the L4. This package
// supplies that layer, in the spirit of Mahar et al.'s hyperscale
// tiered-memory studies (PAPERS.md):
//
//   - a near tier: a DRAM channel/bank/row-buffer timing model that
//     distinguishes row hits from activates and precharges, tracks per-bank
//     occupancy, and schedules a small FR-FCFS-lite window per channel, all
//     in deterministic virtual time (see dramsim.go);
//   - a far tier: a CXL-like device with flat access latency and
//     page-granular residency, fed by a hot/cold placement engine that
//     counts accesses per page over fixed epochs and promotes/demotes pages
//     under one of three policies (static first-touch, LRU-epoch recency,
//     frequency-threshold), charging every migration (see system.go).
//
// Determinism: the model runs in virtual time — a request's arrival stamp is
// a pure function of its position in the replayed trace — and every data
// structure iterates in first-touch or slice order, never map order. Two
// replays of the same recording therefore produce bit-identical statistics,
// which is what lets the tier sweeps ride the parallel experiment engine
// with byte-identical output (DESIGN.md §12).
package mem

import (
	"fmt"

	"searchmem/internal/trace"
)

// PagePolicy selects the hot/cold placement policy applied at epoch
// boundaries.
type PagePolicy uint8

const (
	// PolicyStatic places pages at first touch (near until the near tier
	// fills, then far) and never migrates. The degenerate baseline every
	// dynamic policy must beat.
	PolicyStatic PagePolicy = iota
	// PolicyLRUEpoch tracks the last epoch each page was touched in:
	// near-tier pages idle for MaxIdleEpochs epochs are demoted, and far
	// pages touched in the closing epoch are promoted while the near tier
	// has room. An epoch-granular CLOCK approximation.
	PolicyLRUEpoch
	// PolicyFreqThreshold counts accesses per page per epoch and applies
	// PromoteEpochHits as a symmetric hotness bar: near pages below it in
	// the closing epoch are demoted, far pages at or above it are promoted
	// while the near tier has room.
	PolicyFreqThreshold
)

// String implements fmt.Stringer.
func (p PagePolicy) String() string {
	switch p {
	case PolicyStatic:
		return "static"
	case PolicyLRUEpoch:
		return "lru-epoch"
	case PolicyFreqThreshold:
		return "freq"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// DRAMConfig shapes the near-tier timing model. The zero value selects the
// defaults noted per field (a DDR4-like two-channel system whose loaded
// average latency lands in the paper's measured 50-70 ns tMEM band).
type DRAMConfig struct {
	// Channels and BanksPerChannel shape the parallelism (powers of two;
	// defaults 2 and 16).
	Channels, BanksPerChannel int
	// RowBytes is the row-buffer size per bank (power of two; default
	// 8 KiB). Consecutive addresses fill a row before moving to the next
	// channel, so streaming accesses see long row-hit runs.
	RowBytes int
	// TRCDNS, TRPNS, TCASNS, TBurstNS are the activate, precharge, column
	// access, and data-burst times (defaults 14, 14, 14, 4 ns).
	TRCDNS, TRPNS, TCASNS, TBurstNS float64
	// BaseNS is the constant controller + on-chip interconnect cost added
	// to every near-tier access (default 30 ns): a row hit costs
	// BaseNS+TCAS+TBurst = 48 ns, a closed-row miss 62 ns, a row conflict
	// (precharge first) 76 ns.
	BaseNS float64
	// ArrivalNS is the virtual-time gap between consecutive memory
	// transactions (default 10 ns). Post-L4 traffic at this spacing loads
	// the banks to roughly the 40-50% bandwidth utilization the paper
	// measures in production, so queueing is visible but not dominant.
	ArrivalNS float64
	// WindowDepth is the FR-FCFS-lite scheduling window per channel
	// (default 8, max 64): pending requests that hit an open row issue
	// ahead of older row-miss requests.
	WindowDepth int
}

// FarConfig enables and shapes the far tier. Nil in Config disables far
// memory entirely (the near tier is unbounded).
type FarConfig struct {
	// NearPages is the near-tier capacity in pages; pages beyond it live
	// in the far tier. Must be positive.
	NearPages int64
	// ReadNS and WriteNS are the flat far-tier access latencies (defaults
	// 150 and 150 ns — a CXL-attached DRAM device, one switch hop).
	ReadNS, WriteNS float64
	// Policy is the placement policy (default PolicyStatic).
	Policy PagePolicy
	// EpochLen is the number of memory transactions per placement epoch
	// (default 65536).
	EpochLen int64
	// PromoteEpochHits is PolicyFreqThreshold's hotness bar: a far page
	// needs at least this many accesses in an epoch to be promoted, and a
	// near page below it is demoted (default 4).
	PromoteEpochHits uint32
	// MaxIdleEpochs is PolicyLRUEpoch's demotion age: a near page idle
	// for this many whole epochs is demoted (default 1).
	MaxIdleEpochs uint32
	// MigratePageNS is the modeled cost of moving one page between tiers
	// (default 1000 ns — a page-sized DMA at CXL bandwidth). It is charged
	// to MigrationNS and amortized into EffectiveReadNS.
	MigratePageNS float64
}

// Config describes one tiered memory system.
type Config struct {
	// DRAM shapes the near tier.
	DRAM DRAMConfig
	// PageBytes is the placement granularity (power of two; default 4 KiB).
	PageBytes int
	// Far, when non-nil, enables the far tier.
	Far *FarConfig
}

// withDefaults returns cfg with zero fields resolved, validating shape
// constraints (panics on invalid configuration, like cache.NewHierarchy).
func (cfg Config) withDefaults() Config {
	d := &cfg.DRAM
	if d.Channels == 0 {
		d.Channels = 2
	}
	if d.BanksPerChannel == 0 {
		d.BanksPerChannel = 16
	}
	if d.RowBytes == 0 {
		d.RowBytes = 8 << 10
	}
	if d.TRCDNS == 0 {
		d.TRCDNS = 14
	}
	if d.TRPNS == 0 {
		d.TRPNS = 14
	}
	if d.TCASNS == 0 {
		d.TCASNS = 14
	}
	if d.TBurstNS == 0 {
		d.TBurstNS = 4
	}
	if d.BaseNS == 0 {
		d.BaseNS = 30
	}
	if d.ArrivalNS == 0 {
		d.ArrivalNS = 10
	}
	if d.WindowDepth == 0 {
		d.WindowDepth = 8
	}
	if d.WindowDepth < 1 || d.WindowDepth > 64 {
		panic(fmt.Sprintf("mem: window depth %d out of range [1,64]", d.WindowDepth))
	}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"channels", d.Channels},
		{"banks per channel", d.BanksPerChannel},
		{"row bytes", d.RowBytes},
	} {
		if p.v <= 0 || p.v&(p.v-1) != 0 {
			panic(fmt.Sprintf("mem: %s must be a power of two, got %d", p.name, p.v))
		}
	}
	if cfg.PageBytes == 0 {
		cfg.PageBytes = 4 << 10
	}
	if cfg.PageBytes <= 0 || cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		panic(fmt.Sprintf("mem: page bytes must be a power of two, got %d", cfg.PageBytes))
	}
	if cfg.Far != nil {
		f := *cfg.Far // copy: the caller's FarConfig stays untouched
		if f.NearPages <= 0 {
			panic("mem: far tier requires positive NearPages")
		}
		if f.ReadNS == 0 {
			f.ReadNS = 150
		}
		if f.WriteNS == 0 {
			f.WriteNS = 150
		}
		if f.EpochLen == 0 {
			f.EpochLen = 65536
		}
		if f.PromoteEpochHits == 0 {
			f.PromoteEpochHits = 4
		}
		if f.MaxIdleEpochs == 0 {
			f.MaxIdleEpochs = 1
		}
		if f.MigratePageNS == 0 {
			f.MigratePageNS = 1000
		}
		cfg.Far = &f
	}
	return cfg
}

// ArrivalNS returns the per-transaction virtual-time spacing the config
// resolves to — the time base for converting Stats counts into
// bandwidth-style rates ((Reads+Writes)*ArrivalNS is the modeled duration).
func (cfg Config) ArrivalNS() float64 { return cfg.withDefaults().DRAM.ArrivalNS }

// Stats is a snapshot of the tiered system's counters. All latency sums are
// in nanoseconds of virtual time.
type Stats struct {
	// Reads and Writes are total memory transactions (both tiers).
	Reads, Writes int64
	// FarReads and FarWrites are the far-tier subset.
	FarReads, FarWrites int64
	// RowHits, RowMisses, and Precharges count near-tier row-buffer
	// outcomes: hits reuse the open row, misses activate a row, and
	// Precharges is the subset of misses that first closed another row
	// (bank conflicts).
	RowHits, RowMisses, Precharges int64
	// ReadNSSum and WriteNSSum are total request latencies (queue + device
	// + controller) by direction; QueueNSSum is the near-tier queueing
	// component alone.
	ReadNSSum, WriteNSSum, QueueNSSum float64
	// Migrations counts page moves between tiers; MigratedBytes and
	// MigrationNS are the moved volume and its modeled time.
	Migrations    int64
	MigratedBytes int64
	MigrationNS   float64
	// Epochs is the number of completed placement epochs.
	Epochs int64
	// Pages, NearPages, and FarPages is the touched-page population by
	// residency at snapshot time.
	Pages, NearPages, FarPages int64
	// SegPages and SegFarPages break the page population down by segment.
	SegPages, SegFarPages [trace.NumSegments]int64
	// SegReads and SegFarReads break read traffic down by segment.
	SegReads, SegFarReads [trace.NumSegments]int64
}

// RowHitRate returns the near-tier row-buffer hit rate.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// EffectiveReadNS is the tMEM the AMAT model should use: mean read latency
// with migration time amortized over reads (a page move steals near-tier
// bandwidth from demand traffic). fallback is returned when no reads were
// observed.
func (s Stats) EffectiveReadNS(fallback float64) float64 {
	if s.Reads == 0 {
		return fallback
	}
	return (s.ReadNSSum + s.MigrationNS) / float64(s.Reads)
}

// FarReadFrac returns the fraction of reads served by the far tier.
func (s Stats) FarReadFrac() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.FarReads) / float64(s.Reads)
}

// FarPageFrac returns the fraction of seg's touched pages resident in the
// far tier at snapshot time.
func (s Stats) FarPageFrac(seg trace.Segment) float64 {
	if seg >= trace.NumSegments || s.SegPages[seg] == 0 {
		return 0
	}
	return float64(s.SegFarPages[seg]) / float64(s.SegPages[seg])
}

// CostModel prices provisioned memory capacity, the denominator of the tier
// sweep's QPS-per-memory-dollar metric.
type CostModel struct {
	// NearDollarsPerGiB and FarDollarsPerGiB price each tier's capacity.
	NearDollarsPerGiB, FarDollarsPerGiB float64
}

// DefaultCost is an illustrative price gap: far (CXL-attached, possibly
// previous-generation) capacity at a bit over a third of near DDR cost.
var DefaultCost = CostModel{NearDollarsPerGiB: 4.0, FarDollarsPerGiB: 1.5}

// Dollars prices a provisioned capacity split.
func (c CostModel) Dollars(nearBytes, farBytes int64) float64 {
	const gib = 1 << 30
	return float64(nearBytes)/gib*c.NearDollarsPerGiB + float64(farBytes)/gib*c.FarDollarsPerGiB
}
