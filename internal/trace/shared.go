package trace

import "unsafe"

// Recording is an immutable captured access trace that any number of
// concurrent readers replay through independent cursors. Two stores
// implement it: Shared (flat 16 B/access, zero-copy windows, fastest) and
// Compressed (delta+varint blocks decoded into two reused windows, bounded
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
}

// Shared is an immutable in-memory access trace intended to be synthesized
// once and then replayed read-only by many consumers — the memoization layer
// behind the capacity-sweep experiments, which evaluate dozens of cache
// configurations over the same leaf trace (the paper's own methodology: one
// Pin capture, many simulator replays).
//
// The trace is a list of chunks of DefaultBatchSize accesses (the last one
// may be short), so capture writes every access once — no buffer is regrown
// and re-copied as the recording lengthens — and a View's window is simply
// the next chunk. A SharedWriter builds one; once Finish has returned it,
// nothing mutates the chunks, so any number of Views may iterate them
// concurrently from different goroutines without synchronization.
type Shared struct {
	chunks [][]Access
	n      int
}

// SharedWriter fills a Shared one access at a time. It has the BlockWriter
// shape (Add, Count, Finish), so the Replayer captures into either store
// through one body.
type SharedWriter struct {
	chunks [][]Access
	cur    []Access // the open chunk; full chunks move to chunks
	n      int
}

// NewSharedWriter returns an empty writer. The first chunk is allocated by
// the first Add, so an empty recording holds no memory.
func NewSharedWriter() *SharedWriter { return &SharedWriter{} }

// Add appends one access to the recording. It never fails; the error result
// is BlockWriter's shape.
func (w *SharedWriter) Add(a Access) error {
	if len(w.cur) == cap(w.cur) {
		w.seal()
		w.cur = make([]Access, 0, DefaultBatchSize)
	}
	w.cur = append(w.cur, a)
	w.n++
	return nil
}

// seal moves the open chunk, if it holds anything, to the finished list.
func (w *SharedWriter) seal() {
	if len(w.cur) > 0 {
		w.chunks = append(w.chunks, w.cur[:len(w.cur):len(w.cur)])
	}
}

// Count returns the number of accesses added so far.
func (w *SharedWriter) Count() int { return w.n }

// Finish seals the final partial chunk and returns the immutable trace. The
// writer must not be used afterwards.
func (w *SharedWriter) Finish() *Shared {
	w.seal()
	return &Shared{chunks: w.chunks, n: w.n}
}

// Len returns the number of accesses in the trace.
func (s *Shared) Len() int { return s.n }

// View returns a new rewindable cursor over the shared chunks. Creating a
// view is allocation-cheap (no copy); each view holds its own position, so
// concurrent sweep points each take their own.
func (s *Shared) View() *View { return &View{s: s} }

// Cursor implements Recording.
func (s *Shared) Cursor() Cursor { return s.View() }

// StoredBytes implements Recording: the flat in-memory footprint.
func (s *Shared) StoredBytes() int64 {
	return int64(s.n) * int64(unsafe.Sizeof(Access{}))
}

// View is a cursor over a Shared trace. A View is not safe for concurrent
// use, but distinct Views over the same Shared are independent.
type View struct {
	s    *Shared
	next int // index of the chunk the next NextBatch returns
}

// NextBatch implements BatchStream: the next chunk of the shared immutable
// trace, up to DefaultBatchSize accesses. No copy is made; the BatchStream
// lifetime contract applies (callers must not mutate or retain the window
// past the next call).
func (v *View) NextBatch() []Access {
	if v.next >= len(v.s.chunks) {
		return nil
	}
	out := v.s.chunks[v.next]
	v.next++
	return out
}

// Rewind resets the cursor to the beginning of the trace.
func (v *View) Rewind() { v.next = 0 }
