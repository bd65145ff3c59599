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
	// near-tier pages idle for a whole epoch are demoted, and far
	// pages touched in the closing epoch are promoted while the near tier
	// has room. An epoch-granular CLOCK approximation.
	PolicyLRUEpoch
	// PolicyFreqThreshold counts accesses per page per epoch and applies
	// one hotness bar (4 accesses) symmetrically: near pages below it in
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

// The near tier is a DDR4-like two-channel system whose loaded average
// latency lands in the paper's measured 50-70 ns tMEM band. Its geometry is
// given as shifts, because the address mapping (dramsim.go) is shifts and
// masks.
const (
	// rowShift sizes the row buffer per bank (8 KiB). Consecutive
	// addresses fill a row before moving to the next channel, so
	// streaming accesses see long row-hit runs.
	rowShift = 13
	// channelShift and bankShift shape the parallelism: 2 channels of 16
	// banks.
	channelShift = 1
	bankShift    = 4
	channels     = 1 << channelShift
	banks        = channels << bankShift

	// tRCDNS, tRPNS, tCASNS and tBurstNS are the activate, precharge,
	// column access and data-burst times.
	tRCDNS, tRPNS, tCASNS, tBurstNS float64 = 14, 14, 14, 4
	// baseNS is the constant controller + on-chip interconnect cost added
	// to every near-tier access: a row hit costs baseNS+tCAS+tBurst =
	// 48 ns, a closed-row miss 62 ns, a row conflict (precharge first)
	// 76 ns.
	baseNS float64 = 30
	// arrivalNS is the virtual-time gap between consecutive memory
	// transactions. Post-L4 traffic at this spacing loads the banks to
	// roughly the 40-50% bandwidth utilization the paper measures in
	// production, so queueing is visible but not dominant. It is the time
	// base for converting Stats counts into rates: (Reads+Writes)*arrivalNS
	// is the modeled duration.
	arrivalNS float64 = 10
	// windowDepth is the FR-FCFS-lite scheduling window per channel:
	// pending requests that hit an open row issue ahead of older row-miss
	// requests.
	windowDepth = 8

	// pageShift sets the placement granularity (4 KiB pages).
	pageShift = 12
	pageBytes = 1 << pageShift
)

// The far tier is a CXL-attached DRAM device, one switch hop away, under
// an epoch-based placement engine.
const (
	// farReadNS and farWriteNS are the flat far-tier access latencies.
	farReadNS, farWriteNS float64 = 150, 150
	// promoteEpochHits is PolicyFreqThreshold's hotness bar: a far page
	// needs at least this many accesses in an epoch to be promoted, and a
	// near page below it is demoted.
	promoteEpochHits uint32 = 4
	// maxIdleEpochs is PolicyLRUEpoch's demotion age: a near page idle for
	// this many whole epochs is demoted.
	maxIdleEpochs uint32 = 1
	// migratePageNS is the modeled cost of moving one page between tiers
	// (a page-sized DMA at CXL bandwidth). It is charged to MigrationNS and
	// amortized into EffectiveReadNS.
	migratePageNS float64 = 1000
)

// FarConfig enables and shapes the far tier. Nil in Config disables far
// memory entirely (the near tier is unbounded).
type FarConfig struct {
	// NearPages is the near-tier capacity in pages; pages beyond it live
	// in the far tier. Must be positive.
	NearPages int64
	// Policy is the placement policy (default PolicyStatic).
	Policy PagePolicy
	// EpochLen is the number of memory transactions per placement epoch.
	// Must be positive.
	EpochLen int64
}

// Config describes one tiered memory system. The zero value is the near
// tier alone.
type Config struct {
	// Far, when non-nil, enables the far tier.
	Far *FarConfig
}

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

// MigrationGBs is the migration bandwidth over the model's own virtual
// duration, (Reads+Writes)*arrivalNS, in GB/s.
func (s Stats) MigrationGBs() float64 {
	durNS := float64(s.Reads+s.Writes) * arrivalNS
	if durNS <= 0 {
		return 0
	}
	return float64(s.MigratedBytes) / durNS // bytes/ns = GB/s
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

// The illustrative price gap of provisioned capacity: far (CXL-attached,
// possibly previous-generation) capacity at a bit over a third of near DDR
// cost.
const (
	nearDollarsPerGiB = 4.0
	farDollarsPerGiB  = 1.5
)

// Dollars prices a provisioned capacity split, the denominator of the tier
// sweep's QPS-per-memory-dollar metric.
func Dollars(nearBytes, farBytes int64) float64 {
	const gib = 1 << 30
	return float64(nearBytes)/gib*nearDollarsPerGiB + float64(farBytes)/gib*farDollarsPerGiB
}

// PageDollars prices a provisioned split given in pages.
func PageDollars(nearPages, farPages int64) float64 {
	return Dollars(nearPages*pageBytes, farPages*pageBytes)
}
