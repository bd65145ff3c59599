package workload

import "encoding/binary"

// A recording's branch stream is kept delta+varint encoded, the way the
// block codec keeps its accesses (internal/trace/block.go): branches are
// resident under every store, so at 16 B each they used to outweigh the
// compressed accesses they ride beside. Per-record layout:
//
//	meta uvarint (thread<<1 | taken) | pos-delta uvarint | pc-delta svarint
//
// pos is the branch's anchor — it replays after pos accesses have been
// emitted — and never decreases in capture order, so its delta from the
// previous record is a uvarint (0 for every further branch at one anchor).
// PC deltas run along one chain per thread, where loops and straight-line
// code keep them to a byte or two. The position base and every PC chain
// restart at zero in each chunk of branchChunkLen records, so chunks decode
// independently and a cursor holds one chunk's window, never the log.

// recordedBranch is one decoded branch event. meta packs
// pos<<9 | thread<<1 | taken, which leaves pos 55 bits.
type recordedBranch struct {
	pc   uint64
	meta uint64
}

func (b recordedBranch) pos() int      { return int(b.meta >> 9) }
func (b recordedBranch) thread() uint8 { return uint8(b.meta >> 1) }
func (b recordedBranch) taken() bool   { return b.meta&1 != 0 }

const (
	// branchChunkLen is the records per chunk: a 128 KiB decode window.
	branchChunkLen = 8192
	// branchArenaLen is the allocation unit of sealed chunk bytes. A sealed
	// chunk is copied once into the open arena and never straddles two, so
	// capture re-copies nothing as the log lengthens.
	branchArenaLen = 256 << 10
	// maxBranchRecordLen is three full-width varints; with that much input
	// left the decoder reads a record's leading bytes unguarded.
	maxBranchRecordLen = 3 * binary.MaxVarintLen64
)

// branchLog is a recording's sealed branch stream in capture order. Every
// chunk is non-empty and all but the last hold branchChunkLen records.
type branchLog struct {
	chunks []branchChunk
	n      int   // records
	size   int64 // encoded bytes
}

// branchChunk is one independently decodable run of count records.
type branchChunk struct {
	data  []byte
	count int
}

// branchWriter encodes a branch stream as it is captured.
type branchWriter struct {
	log   branchLog
	arena []byte      // open arena of sealed chunks
	cur   []byte      // the open chunk's encoding, reused across seals
	count int         // records in cur
	pos   int         // the previous record's anchor (0 at a chunk's start)
	pcs   [256]uint64 // each thread's previous PC (0 at a chunk's start)
}

// add appends one branch anchored after pos accesses.
func (w *branchWriter) add(pos int, thread uint8, pc uint64, taken bool) {
	meta := uint64(thread) << 1
	if taken {
		meta |= 1
	}
	w.cur = binary.AppendUvarint(w.cur, meta)
	w.cur = binary.AppendUvarint(w.cur, uint64(pos-w.pos))
	w.cur = binary.AppendVarint(w.cur, int64(pc-w.pcs[thread]))
	w.pos, w.pcs[thread] = pos, pc
	if w.count++; w.count == branchChunkLen {
		w.seal()
	}
}

// seal closes the open chunk and restarts the delta chains.
func (w *branchWriter) seal() {
	if w.count == 0 {
		return
	}
	if len(w.cur) > cap(w.arena)-len(w.arena) {
		w.arena = make([]byte, 0, max(branchArenaLen, len(w.cur)))
	}
	w.arena = append(w.arena, w.cur...)
	data := w.arena[len(w.arena)-len(w.cur) : len(w.arena) : len(w.arena)]
	w.log.chunks = append(w.log.chunks, branchChunk{data: data, count: w.count})
	w.log.n += w.count
	w.log.size += int64(len(data))
	w.cur, w.count, w.pos = w.cur[:0], 0, 0
	w.pcs = [256]uint64{}
}

// finish seals the final partial chunk and returns the immutable log. The
// writer must not be used afterwards.
func (w *branchWriter) finish() branchLog {
	w.seal()
	return w.log
}

// branchCursor reads a branchLog chunk by chunk into one reused window: the
// only way the log is read. The zero next is the log's start.
type branchCursor struct {
	log  *branchLog
	next int
	win  []recordedBranch
}

// nextChunk decodes the next chunk and returns its records, nil once the log
// is drained. The slice is valid until the next call.
func (c *branchCursor) nextChunk() []recordedBranch {
	if c.next == len(c.log.chunks) {
		return nil
	}
	ch := c.log.chunks[c.next]
	c.next++
	if c.win == nil {
		c.win = make([]recordedBranch, min(c.log.n, branchChunkLen))
	}
	win := c.win[:ch.count]
	decodeBranches(ch.data, win)
	return win
}

// decodeBranches decodes one chunk's bytes into win, which has the chunk's
// record count. The bytes never leave memory and only branchWriter produces
// them, so anything malformed is a bug and panics.
func decodeBranches(data []byte, win []recordedBranch) {
	var pcs [256]uint64
	var pos uint64
	p := 0
	for i := range win {
		var meta, dpos, dpc uint64
		if len(data)-p < maxBranchRecordLen {
			// The chunk's tail: every byte bounds-checked.
			meta, p = uvarintAt(data, p)
			dpos, p = uvarintAt(data, p)
			dpc, p = uvarintAt(data, p)
		} else {
			// A whole record is in range whatever its shape, so the dominant
			// shapes — nineteen records in twenty are three one-byte varints,
			// most of the rest differ in a 2-3-byte PC delta — decode without
			// a length test per byte.
			meta = uint64(data[p])
			p++
			if meta >= 0x80 { // threads 64-255
				meta = meta&0x7f | uint64(data[p])<<7
				p++
			}
			if b := data[p]; b < 0x80 {
				dpos = uint64(b)
				p++
			} else {
				dpos, p = uvarintAt(data, p)
			}
			if b := data[p]; b < 0x80 {
				dpc = uint64(b)
				p++
			} else if b2 := data[p+1]; b2 < 0x80 {
				dpc = uint64(b&0x7f) | uint64(b2)<<7
				p += 2
			} else if b3 := data[p+2]; b3 < 0x80 {
				dpc = uint64(b&0x7f) | uint64(b2&0x7f)<<7 | uint64(b3)<<14
				p += 3
			} else {
				dpc, p = uvarintAt(data, p)
			}
		}
		if meta > 0x1ff {
			panic("workload: corrupt branch log: thread id out of range")
		}
		thread := uint8(meta >> 1)
		pos += dpos
		pc := pcs[thread] + uint64(int64(dpc>>1)^-int64(dpc&1)) // zigzag
		pcs[thread] = pc
		win[i] = recordedBranch{pc: pc, meta: pos<<9 | meta}
	}
	if p != len(data) {
		panic("workload: corrupt branch log: trailing bytes after chunk")
	}
}

// uvarintAt is the fully checked varint read behind decodeBranches' fast
// shapes.
func uvarintAt(data []byte, p int) (uint64, int) {
	v, n := binary.Uvarint(data[p:])
	if n <= 0 {
		panic("workload: corrupt branch log: truncated or overlong varint")
	}
	return v, p + n
}
