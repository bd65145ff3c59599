// Package trace defines the memory-access trace representation shared by the
// workload generators and the cache simulator.
//
// The paper captured full instruction and data traces from production search
// with Intel Pin and replayed them through a functional cache simulator. This
// package is the reproduction's equivalent of the Pin trace format: a stream
// of (address, segment, kind) events tagged with the hardware thread that
// issued them. Traces are held in memory (shared.go) or block-compressed
// (block.go), in RAM, in a spill file, or in a trace file (file.go).
package trace

import "fmt"

// Segment identifies which software memory segment an access belongs to.
// The paper's analysis (Figures 4-6, 13) is almost entirely expressed as
// per-segment breakdowns, so the segment travels with every access.
type Segment uint8

const (
	// Code is the instruction segment (text). The paper measures a ~4 MiB
	// code working set that overflows private L2s but is fully captured by
	// a 16 MiB L3.
	Code Segment = iota
	// Heap is dynamically allocated program data: scoring structures,
	// per-query state, shared metadata. The paper finds ~1 GiB of heap
	// working set with strong reuse — the motivation for the L4 cache.
	Heap
	// Shard is the memory-resident index shard (100s of GiB in production).
	// Accesses stream through posting lists with high spatial but
	// negligible temporal locality.
	Shard
	// Stack is thread stacks: tiny and near-perfectly cached.
	Stack

	// NumSegments is the number of distinct segments.
	NumSegments = 4
)

// String implements fmt.Stringer.
func (s Segment) String() string {
	switch s {
	case Code:
		return "code"
	case Heap:
		return "heap"
	case Shard:
		return "shard"
	case Stack:
		return "stack"
	default:
		return fmt.Sprintf("segment(%d)", uint8(s))
	}
}

// Kind distinguishes instruction fetches from data reads and writes.
type Kind uint8

const (
	// Fetch is an instruction fetch (routed to the L1-I cache).
	Fetch Kind = iota
	// Read is a data load (routed to the L1-D cache).
	Read
	// Write is a data store (routed to the L1-D cache, write-allocate).
	Write

	// NumKinds is the number of access kinds.
	NumKinds = 3
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Fetch:
		return "fetch"
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Access is one memory reference. Addresses live in a single flat virtual
// address space; the workload generator lays segments out at disjoint base
// addresses (see internal/memsim).
type Access struct {
	// Addr is the virtual byte address of the reference.
	Addr uint64
	// Size is the reference width in bytes (1-256).
	Size uint16
	// Seg is the software segment this address belongs to.
	Seg Segment
	// Kind is fetch/read/write.
	Kind Kind
	// Thread is the issuing hardware-thread id.
	Thread uint8
}

// String implements fmt.Stringer.
func (a Access) String() string {
	return fmt.Sprintf("t%d %s %s 0x%x+%d", a.Thread, a.Kind, a.Seg, a.Addr, a.Size)
}

// BatchStream is the one access transport: NextBatch returns the next
// contiguous run of accesses, or an empty slice when the stream is
// exhausted. One dynamic call amortizes over thousands of accesses, which is
// what keeps Hierarchy.AccessBatch fed.
//
// Subslice lifetime contract: the returned slice is only valid until the
// next NextBatch call and must be treated as read-only. View hands out
// zero-copy windows of shared immutable storage and CompressedView reuses
// two decode windows, decoding the next block into one while the caller
// reads the other, so callers must neither mutate the batch nor retain it
// — copy what must outlive the call. A consumer that breaks the rule reads
// another block's accesses only under compressed storage, which is what the
// flat ≡ compressed ≡ spilled equivalence tests catch, and races with the
// decode goroutine, which -race reports.
type BatchStream interface {
	NextBatch() []Access
}

// DefaultBatchSize is the batch length handed out by the package's
// BatchStream implementations: large enough to amortize dispatch, small
// enough that a batch (128 KiB of Access values) stays cache-resident while
// several simulated hierarchies consume it (workload.MeasureMulti).
const DefaultBatchSize = 8192
