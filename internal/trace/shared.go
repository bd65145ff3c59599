package trace

import "unsafe"

// Recording is an immutable captured access trace that any number of
// concurrent readers replay through independent cursors. Two stores
// implement it: Shared (flat 16 B/access, zero-copy windows, fastest) and
// Compressed (delta+varint blocks decoded into a reused window, bounded
// memory — see block.go). The workload Replayer records into one or the
// other; every consumer downstream sees only this interface and reads it in
// BatchStream windows.
type Recording interface {
	// Len returns the number of accesses in the recording.
	Len() int
	// Cursor returns a fresh independent read cursor at the start.
	Cursor() Cursor
	// StoredBytes returns the bytes the recording occupies (flat in-memory
	// size for Shared; encoded size — possibly on disk — for Compressed).
	StoredBytes() int64
}

// Cursor reads a Recording from the beginning, one batch at a time, and can
// be rewound for another pass. Batches follow the BatchStream lifetime
// contract. A cursor is not safe for concurrent use; distinct cursors over
// one Recording are independent.
type Cursor interface {
	BatchStream
	Rewind()
	Len() int
}

// Shared is an immutable in-memory access trace intended to be synthesized
// once and then replayed read-only by many consumers — the memoization layer
// behind the capacity-sweep experiments, which evaluate dozens of cache
// configurations over the same leaf trace (the paper's own methodology: one
// Pin capture, many simulator replays).
//
// Immutability contract: NewShared takes ownership of the slice; the caller
// must not retain or mutate it afterwards. Shared itself never mutates the
// buffer, so any number of Views may iterate it concurrently from different
// goroutines without synchronization.
type Shared struct {
	accesses []Access
}

// NewShared wraps accesses as an immutable shared trace. Ownership of the
// slice transfers to the Shared; callers must drop their reference.
func NewShared(accesses []Access) *Shared {
	return &Shared{accesses: accesses}
}

// Len returns the number of accesses in the trace.
func (s *Shared) Len() int { return len(s.accesses) }

// View returns a new rewindable cursor over the shared buffer. Creating a
// view is allocation-cheap (no copy); each view holds its own position, so
// concurrent sweep points each take their own.
func (s *Shared) View() *View { return &View{s: s} }

// Cursor implements Recording.
func (s *Shared) Cursor() Cursor { return s.View() }

// StoredBytes implements Recording: the flat in-memory footprint.
func (s *Shared) StoredBytes() int64 {
	return int64(len(s.accesses)) * int64(unsafe.Sizeof(Access{}))
}

// View is a cursor over a Shared trace. A View is not safe for concurrent
// use, but distinct Views over the same Shared are independent.
type View struct {
	s   *Shared
	pos int
}

// NextBatch implements BatchStream: a zero-copy window of up to
// DefaultBatchSize accesses over the shared immutable buffer. No copy is
// made; the BatchStream lifetime contract applies (callers must not mutate
// or retain the window past the next call).
//
//lint:hot
func (v *View) NextBatch() []Access {
	if v.pos >= len(v.s.accesses) {
		return nil
	}
	end := v.pos + DefaultBatchSize
	if end > len(v.s.accesses) {
		end = len(v.s.accesses)
	}
	out := v.s.accesses[v.pos:end:end]
	v.pos = end
	return out
}

// Rewind resets the cursor to the beginning of the trace.
func (v *View) Rewind() { v.pos = 0 }

// Len returns the total number of accesses in the underlying trace.
func (v *View) Len() int { return len(v.s.accesses) }
