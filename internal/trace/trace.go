// Package trace defines the memory-access trace representation shared by the
// workload generators and the cache simulator.
//
// The paper captured full instruction and data traces from production search
// with Intel Pin and replayed them through a functional cache simulator. This
// package is the reproduction's equivalent of the Pin trace format: a stream
// of (address, segment, kind) events tagged with the hardware thread that
// issued them. Traces can be held in memory, streamed from generators, or
// serialized to a compact binary file format (see codec.go).
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

// Stream is a pull-based source of accesses. Next returns false when the
// stream is exhausted. Implementations need not be safe for concurrent use.
type Stream interface {
	Next(a *Access) bool
}

// BatchStream is the batched fast path over an access source: NextBatch
// returns the next contiguous run of accesses, or an empty slice when the
// stream is exhausted. Batching removes the per-access interface dispatch
// and copy that dominate scalar replay (one dynamic call amortizes over
// thousands of accesses), which is what makes the hierarchy's DrainBatch
// kernel fast.
//
// Subslice lifetime contract: the returned slice is only valid until the
// next NextBatch call and must be treated as read-only. Zero-copy
// implementations (View) hand out windows of shared immutable storage and
// buffered adapters (Batched) reuse one internal buffer, so callers must
// neither mutate the batch nor retain it — copy what must outlive the call.
// The searchlint batchalias analyzer mechanizes this rule.
type BatchStream interface {
	NextBatch() []Access
}

// DefaultBatchSize is the batch length handed out by the package's
// BatchStream implementations: large enough to amortize dispatch, small
// enough that a batch (128 KiB of Access values) stays cache-resident while
// several simulated hierarchies consume it (workload.MeasureMulti).
const DefaultBatchSize = 8192

// Batched adapts a Stream to the batched interface. Streams that already
// implement BatchStream (View, SliceStream) are returned as-is; generator
// streams are wrapped in a buffered adapter that fills a reused
// DefaultBatchSize buffer through scalar Next calls. The returned batches
// obey the BatchStream lifetime contract (the adapter's buffer is reused).
func Batched(s Stream) BatchStream {
	if bs, ok := s.(BatchStream); ok {
		return bs
	}
	return &bufferedBatch{s: s, buf: make([]Access, DefaultBatchSize)}
}

// bufferedBatch refills one reusable buffer from a scalar stream.
type bufferedBatch struct {
	s   Stream
	buf []Access
}

// NextBatch implements BatchStream.
func (b *bufferedBatch) NextBatch() []Access {
	n := 0
	//lint:ignore hotalloc fallback adapter for scalar streams (generators, codec readers), contractually not a zero-alloc path; the batched kernels ride View/CompressedView
	for n < len(b.buf) && b.s.Next(&b.buf[n]) {
		n++
	}
	return b.buf[:n]
}

// NextBatch implements BatchStream with a zero-copy window over the
// underlying slice. The window shares storage with the stream, so the
// BatchStream lifetime contract applies.
func (s *SliceStream) NextBatch() []Access {
	if s.pos >= len(s.accesses) {
		return nil
	}
	end := s.pos + DefaultBatchSize
	if end > len(s.accesses) {
		end = len(s.accesses)
	}
	out := s.accesses[s.pos:end:end]
	s.pos = end
	return out
}

// SliceStream adapts an in-memory access slice to the Stream interface.
type SliceStream struct {
	accesses []Access
	pos      int
}

// NewSliceStream returns a Stream over the given accesses.
func NewSliceStream(accesses []Access) *SliceStream {
	return &SliceStream{accesses: accesses}
}

// Next implements Stream.
func (s *SliceStream) Next(a *Access) bool {
	if s.pos >= len(s.accesses) {
		return false
	}
	*a = s.accesses[s.pos]
	s.pos++
	return true
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of accesses in the underlying slice.
func (s *SliceStream) Len() int { return len(s.accesses) }

// FuncStream adapts a generator function to the Stream interface. The
// function must return false when exhausted.
type FuncStream func(a *Access) bool

// Next implements Stream.
func (f FuncStream) Next(a *Access) bool { return f(a) }

// Collect drains a stream into a slice. Intended for tests and small traces;
// experiment pipelines stream instead of materializing.
func Collect(s Stream) []Access {
	var out []Access
	var a Access
	for s.Next(&a) {
		out = append(out, a)
	}
	return out
}

// Limit returns a stream that yields at most n accesses from s.
func Limit(s Stream, n int) Stream {
	remaining := n
	return FuncStream(func(a *Access) bool {
		if remaining <= 0 {
			return false
		}
		if !s.Next(a) {
			return false
		}
		remaining--
		return true
	})
}

// FilterSegment returns a stream containing only accesses to seg.
func FilterSegment(s Stream, seg Segment) Stream {
	return FuncStream(func(a *Access) bool {
		for s.Next(a) {
			if a.Seg == seg {
				return true
			}
		}
		return false
	})
}

// Sample returns a stream yielding every nth access of s (systematic
// sampling; n <= 1 passes everything through). Useful to bound analysis
// cost on long traces while preserving per-segment mix.
func Sample(s Stream, n int) Stream {
	if n <= 1 {
		return s
	}
	count := 0
	return FuncStream(func(a *Access) bool {
		for s.Next(a) {
			count++
			if count%n == 1 {
				return true
			}
		}
		return false
	})
}

// Interleave merges per-thread streams round-robin with the given burst
// length, emulating fine-grained multi-threaded execution on a core. A burst
// of 0 is treated as 1. Exhausted streams drop out; the merged stream ends
// when all inputs end.
func Interleave(burst int, streams ...Stream) Stream {
	if burst <= 0 {
		burst = 1
	}
	live := make([]Stream, len(streams))
	copy(live, streams)
	cur, inBurst := 0, 0
	return FuncStream(func(a *Access) bool {
		for len(live) > 0 {
			if cur >= len(live) {
				cur = 0
			}
			if inBurst >= burst {
				inBurst = 0
				cur++
				if cur >= len(live) {
					cur = 0
				}
			}
			if live[cur].Next(a) {
				inBurst++
				return true
			}
			// Stream exhausted: remove and continue with the next one.
			live = append(live[:cur], live[cur+1:]...)
			inBurst = 0
		}
		return false
	})
}
