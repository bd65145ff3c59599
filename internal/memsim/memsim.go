// Package memsim provides instrumented memory arenas: flat byte regions at
// realistic virtual addresses whose every read and write emits a trace
// access.
//
// It is this reproduction's substitute for the paper's Pin-based tracing:
// instead of instrumenting a production binary, the search-engine substrate
// (internal/search) keeps its data structures *inside* arenas, so the
// address stream it generates has genuine layout, spatial locality, and
// segment attribution (code/heap/shard/stack).
package memsim

import (
	"encoding/binary"
	"fmt"

	"searchmem/internal/trace"
)

// Segment base addresses, loosely mirroring a Linux x86-64 layout: text
// low, a large mmap'd shard region, the heap above it, and per-thread
// stacks high.
const (
	CodeBase  uint64 = 0x0000_0000_0040_0000
	ShardBase uint64 = 0x0000_2000_0000_0000
	HeapBase  uint64 = 0x0000_5500_0000_0000
	StackBase uint64 = 0x0000_7fff_0000_0000
	// StackStride separates per-thread stacks.
	StackStride uint64 = 8 << 20
)

// baseFor returns the starting address of a segment's region.
func baseFor(seg trace.Segment) uint64 {
	switch seg {
	case trace.Code:
		return CodeBase
	case trace.Shard:
		return ShardBase
	case trace.Heap:
		return HeapBase
	case trace.Stack:
		return StackBase
	default:
		panic(fmt.Sprintf("memsim: unknown segment %v", seg))
	}
}

// Recorder receives every instrumented access. A nil Recorder disables
// recording (used to warm structures or to measure footprint only).
type Recorder func(trace.Access)

// Space is one simulated virtual address space. Arenas are carved out of
// per-segment regions in allocation order.
type Space struct {
	rec    Recorder
	next   [trace.NumSegments]uint64
	arenas []*Arena
}

// NewSpace returns an empty address space recording into rec (which may be
// nil).
func NewSpace(rec Recorder) *Space {
	s := &Space{rec: rec}
	for seg := trace.Segment(0); seg < trace.NumSegments; seg++ {
		s.next[seg] = baseFor(seg)
	}
	return s
}

// SetRecorder swaps the access recorder; passing nil mutes recording.
// Useful to build/warm structures silently and then record steady state,
// exactly as the paper traces servers "already in steady state".
func (s *Space) SetRecorder(rec Recorder) { s.rec = rec }

// record emits one access if a recorder is attached.
func (s *Space) record(a trace.Access) {
	if s.rec != nil {
		s.rec(a)
	}
}

// NewArena carves a backed arena of the given size out of seg's region.
func (s *Space) NewArena(name string, seg trace.Segment, size int) *Arena {
	if size <= 0 {
		panic(fmt.Sprintf("memsim: arena %q size must be positive", name))
	}
	return s.carve(&Arena{name: name, seg: seg, buf: make([]byte, size)}, uint64(size))
}

// carve places a at the next free address of its segment's region.
func (s *Space) carve(a *Arena, size uint64) *Arena {
	a.base, a.space = s.next[a.seg], s
	s.next[a.seg] += size
	s.arenas = append(s.arenas, a)
	return a
}

// NewArenaOver carves an arena out of seg's region, at the address NewArena
// would have given it, backed by the caller's bytes instead of a copy of
// them. The bytes are shared — any number of arenas, in any number of spaces,
// may lie over one buffer at once — so the arena is read-only: reads and
// Touch record as on any arena, every write entry point panics.
func (s *Space) NewArenaOver(name string, seg trace.Segment, buf []byte) *Arena {
	if len(buf) == 0 {
		panic(fmt.Sprintf("memsim: arena %q size must be positive", name))
	}
	return s.carve(&Arena{name: name, seg: seg, buf: buf, readOnly: true}, uint64(len(buf)))
}

// NewPhantomArena carves an arena that records accesses but has no backing
// bytes: Touch works, data accessors panic. Synthetic workloads with
// multi-hundred-MiB footprints (the SPEC-like profiles) use phantom arenas
// so footprint costs no host memory.
func (s *Space) NewPhantomArena(name string, seg trace.Segment, size int64) *Arena {
	if size <= 0 {
		panic(fmt.Sprintf("memsim: phantom arena %q size must be positive", name))
	}
	return s.carve(&Arena{name: name, seg: seg, phantomSize: size}, uint64(size))
}

// ThreadStackArena returns a small backed arena inside thread's stack
// region. Each thread gets its own disjoint stack addresses.
func (s *Space) ThreadStackArena(thread uint8, size int) *Arena {
	base := StackBase + uint64(thread)*StackStride
	a := &Arena{
		name:  fmt.Sprintf("stack[t%d]", thread),
		seg:   trace.Stack,
		base:  base,
		buf:   make([]byte, size),
		space: s,
		// A thread's stack is reserved in full at creation; footprint
		// accounting (Figure 4) counts it as allocated.
		used: uint64(size),
	}
	s.arenas = append(s.arenas, a)
	return a
}

// FootprintBytes returns the total bytes allocated (Alloc'd) inside arenas
// of seg — the "allocated memory footprint" of Figure 4.
func (s *Space) FootprintBytes(seg trace.Segment) uint64 {
	var total uint64
	for _, a := range s.arenas {
		if a.seg == seg {
			total += a.used
		}
	}
	return total
}

// Arena is one contiguous, byte-backed, instrumented memory region.
type Arena struct {
	name        string
	seg         trace.Segment
	base        uint64
	used        uint64
	buf         []byte
	phantomSize int64 // non-zero for unbacked (phantom) arenas
	readOnly    bool  // buf is the caller's (NewArenaOver): never written
	space       *Space
}

// Base returns the arena's first virtual address.
func (a *Arena) Base() uint64 { return a.base }

// Size returns the arena's capacity in bytes.
func (a *Arena) Size() int {
	if a.phantomSize > 0 {
		return int(a.phantomSize)
	}
	return len(a.buf)
}

// Used returns the bytes handed out by Alloc.
func (a *Arena) Used() uint64 { return a.used }

// Alloc reserves n bytes aligned to align (a power of two; 0 or 1 for no
// alignment) and returns their virtual address. It panics when the arena is
// exhausted: arena sizes are part of experiment configuration and running
// out indicates a mis-sized setup, not a runtime condition to handle.
func (a *Arena) Alloc(n int, align int) uint64 {
	if n < 0 {
		panic(fmt.Sprintf("memsim: %s: negative allocation", a.name))
	}
	if align > 1 {
		if align&(align-1) != 0 {
			panic(fmt.Sprintf("memsim: %s: alignment %d not a power of two", a.name, align))
		}
		mask := uint64(align - 1)
		a.used = (a.used + mask) &^ mask
	}
	if a.used+uint64(n) > uint64(a.Size()) {
		panic(fmt.Sprintf("memsim: arena %q exhausted (%d of %d bytes used, need %d more)",
			a.name, a.used, a.Size(), n))
	}
	addr := a.base + a.used
	a.used += uint64(n)
	return addr
}

// off converts a virtual address inside the arena to a buffer offset,
// bounds-checking the access.
func (a *Arena) off(addr uint64, n int) int {
	if addr < a.base || addr+uint64(n) > a.base+uint64(a.Size()) {
		panic(fmt.Sprintf("memsim: %s: access 0x%x+%d outside [0x%x, 0x%x)",
			a.name, addr, n, a.base, a.base+uint64(a.Size())))
	}
	return int(addr - a.base)
}

// data returns the backing buffer, panicking for phantom arenas.
func (a *Arena) data() []byte {
	if a.phantomSize > 0 {
		panic(fmt.Sprintf("memsim: %s: data access on phantom arena", a.name))
	}
	return a.buf
}

// writable returns the backing buffer for a write, panicking for arenas laid
// over bytes they do not own.
func (a *Arena) writable() []byte {
	if a.readOnly {
		panic(fmt.Sprintf("memsim: %s: write to a read-only arena", a.name))
	}
	return a.data()
}

// Touch records an access without transferring data (used for modeled
// structures whose contents are irrelevant, e.g. stack frames).
func (a *Arena) Touch(thread uint8, addr uint64, n int, kind trace.Kind) {
	a.off(addr, n) // bounds check even when muted
	a.space.record(trace.Access{Addr: addr, Size: uint16(n), Seg: a.seg, Kind: kind, Thread: thread})
}

// ReadU8 reads one byte.
func (a *Arena) ReadU8(thread uint8, addr uint64) byte {
	o := a.off(addr, 1)
	a.space.record(trace.Access{Addr: addr, Size: 1, Seg: a.seg, Kind: trace.Read, Thread: thread})
	return a.data()[o]
}

// ReadU32 reads a little-endian uint32.
func (a *Arena) ReadU32(thread uint8, addr uint64) uint32 {
	o := a.off(addr, 4)
	a.space.record(trace.Access{Addr: addr, Size: 4, Seg: a.seg, Kind: trace.Read, Thread: thread})
	return binary.LittleEndian.Uint32(a.data()[o:])
}

// ReadU64 reads a little-endian uint64.
func (a *Arena) ReadU64(thread uint8, addr uint64) uint64 {
	o := a.off(addr, 8)
	a.space.record(trace.Access{Addr: addr, Size: 8, Seg: a.seg, Kind: trace.Read, Thread: thread})
	return binary.LittleEndian.Uint64(a.data()[o:])
}

// WriteU32 writes a little-endian uint32.
func (a *Arena) WriteU32(thread uint8, addr uint64, v uint32) {
	o := a.off(addr, 4)
	buf := a.writable()
	a.space.record(trace.Access{Addr: addr, Size: 4, Seg: a.seg, Kind: trace.Write, Thread: thread})
	binary.LittleEndian.PutUint32(buf[o:], v)
}

// WriteU64 writes a little-endian uint64.
func (a *Arena) WriteU64(thread uint8, addr uint64, v uint64) {
	o := a.off(addr, 8)
	buf := a.writable()
	a.space.record(trace.Access{Addr: addr, Size: 8, Seg: a.seg, Kind: trace.Write, Thread: thread})
	binary.LittleEndian.PutUint64(buf[o:], v)
}

// ReadUvarint decodes a varint at addr, recording one access covering the
// bytes consumed. It returns the value and encoded length.
func (a *Arena) ReadUvarint(thread uint8, addr uint64) (uint64, int) {
	o := a.off(addr, 1)
	v, n := binary.Uvarint(a.data()[o:])
	if n <= 0 {
		panic(fmt.Sprintf("memsim: %s: bad varint at 0x%x", a.name, addr))
	}
	a.off(addr, n)
	a.space.record(trace.Access{Addr: addr, Size: uint16(n), Seg: a.seg, Kind: trace.Read, Thread: thread})
	return v, n
}

// WriteRaw copies bytes into the arena without recording (setup-time
// serialization; steady-state reads are what get traced).
func (a *Arena) WriteRaw(addr uint64, data []byte) {
	o := a.off(addr, len(data))
	copy(a.writable()[o:], data)
}

// ReadRaw returns a view of n bytes without recording.
func (a *Arena) ReadRaw(addr uint64, n int) []byte {
	o := a.off(addr, n)
	return a.data()[o : o+n]
}
