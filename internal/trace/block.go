package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Block-compressed recording storage.
//
// Shared keeps every recorded access as a 16-byte struct, which caps
// replayable trace length by host RAM (the repo's 1/64 scale ceiling). The
// Compressed store keeps the same recording as delta+varint blocks —
// typically 2-4 bytes per access for the sequential scans that dominate the
// leaf (posting lists, instruction fetch) — and decodes one block at a time
// into two reused windows behind the ordinary BatchStream contract, the next
// block while the caller works on this one, so replay RSS is bounded by two
// blocks regardless of trace length. With a SpillFile
// attached, finished blocks leave memory entirely and are read back through
// a plain io.ReaderAt (no mmap), which keeps concurrent views safe and the
// footprint flat at paper-scale traces.
//
// Per-record layout:
//
//	meta u8 | [thread u8] | size uvarint | addr-delta svarint
//
// meta packs kind (2 bits), segment (2 bits), and a 4-bit thread nibble;
// nibble 0x0f is an escape meaning the full 8-bit thread id follows, so
// every Access.Thread value round-trips. Address deltas are taken per
// (thread, segment) pair, which makes sequential scans (posting lists,
// instruction fetch) compress to a few bytes per access, and every chain's
// base resets to zero at each block boundary: blocks are therefore
// independently decodable, which is what makes spill-to-disk and Rewind
// cheap (no chain state survives a block). A trace file (file.go) is a
// spilled recording.
type Compressed struct {
	blocks   []blockMeta
	spill    io.ReaderAt // block bytes live here when spilled, else in blocks[i].data
	n        int
	blockLen int
}

// blockMeta locates one independently decodable block: size bytes at off in
// the spill file, or data in memory.
type blockMeta struct {
	off   int64
	size  int32
	count int32
	data  []byte
}

// memChunkLen is the allocation unit of in-memory block bytes. A sealed
// block is copied once into the open chunk and never straddles two, so
// recording re-copies nothing as it lengthens and a chunk's tail wastes less
// than one block (~2 % at DefaultBlockLen).
const memChunkLen = 1 << 20

// DefaultBlockLen is the number of accesses per compressed block: equal to
// DefaultBatchSize so one decoded block feeds the batched kernels as one
// window, and small enough (a block decodes into 128 KiB of Access values)
// that the window stays cache-resident while hierarchies consume it.
const DefaultBlockLen = DefaultBatchSize

// threadEscape is the meta thread-nibble value marking an explicit thread
// byte. Threads 0-14 encode inline; 15-255 cost one extra byte.
const threadEscape = 0x0f

// maxRecordLen bounds one encoded record: 1 (meta) + 1 (thread escape) + 10
// (size uvarint) + 10 (delta svarint) bytes. The size value is capped at
// MaxUint16, but uvarintAt accepts non-canonical 10-byte encodings of small
// values, so the bound budgets the full varint width.
const maxRecordLen = 22

// ErrBadTrace is returned when recorded block bytes or a trace file are
// malformed.
var ErrBadTrace = errors.New("trace: malformed trace file")

// SpillFile is where a BlockWriter parks finished blocks and a
// CompressedView later reads them back from. *os.File satisfies it; both
// sides use offset-addressed I/O so any number of views may read
// concurrently without a shared cursor.
type SpillFile interface {
	io.WriterAt
	io.ReaderAt
}

// BlockWriter incrementally compresses an access stream into blocks. With a
// nil spill the encoded blocks accumulate in memory, in memChunkLen chunks
// (still ~4-8x smaller than flat storage); with a SpillFile each finished
// block is written out immediately and the writer's footprint is one
// encoding block.
type BlockWriter struct {
	blockLen int
	spill    SpillFile
	mem      []byte // open chunk of sealed in-memory blocks (nil when spilling)
	cur      []byte
	curCount int
	blocks   []blockMeta
	off      int64
	n        int
	err      error

	// Per-(thread, segment) delta chains. Every chain's base resets to zero
	// at block boundaries (blocks must decode independently); the 8 KiB
	// clear costs well under 0.1 ns per access at DefaultBlockLen.
	chain [256][NumSegments]uint64
}

// NewBlockWriter returns a writer producing blocks of blockLen accesses
// (0 selects DefaultBlockLen). spill may be nil (in-memory blocks).
func NewBlockWriter(blockLen int, spill SpillFile) *BlockWriter {
	if blockLen <= 0 {
		blockLen = DefaultBlockLen
	}
	return &BlockWriter{blockLen: blockLen, spill: spill}
}

// Add appends one access to the recording.
func (w *BlockWriter) Add(a Access) error {
	if w.err != nil {
		return w.err
	}
	if a.Seg >= NumSegments || a.Kind >= NumKinds {
		return fmt.Errorf("trace: invalid access %v", a)
	}
	t, s := a.Thread, a.Seg
	prev := w.chain[t][s]
	w.chain[t][s] = a.Addr

	meta := byte(a.Kind)<<6 | byte(s)<<4
	if t < threadEscape {
		w.cur = append(w.cur, meta|t)
	} else {
		w.cur = append(w.cur, meta|threadEscape, t)
	}
	w.cur = binary.AppendUvarint(w.cur, uint64(a.Size))
	w.cur = binary.AppendVarint(w.cur, int64(a.Addr-prev))
	w.curCount++
	w.n++
	if w.curCount >= w.blockLen {
		return w.flushBlock()
	}
	return nil
}

// flushBlock seals the current block (to memory or the spill file).
func (w *BlockWriter) flushBlock() error {
	if w.curCount == 0 {
		return nil
	}
	bm := blockMeta{off: w.off, size: int32(len(w.cur)), count: int32(w.curCount)}
	if w.spill != nil {
		if _, err := w.spill.WriteAt(w.cur, w.off); err != nil {
			w.err = fmt.Errorf("trace: spilling block %d: %w", len(w.blocks), err)
			return w.err
		}
	} else {
		if len(w.cur) > cap(w.mem)-len(w.mem) {
			w.mem = make([]byte, 0, max(memChunkLen, len(w.cur)))
		}
		w.mem = append(w.mem, w.cur...)
		bm.data = w.mem[len(w.mem)-len(w.cur) : len(w.mem) : len(w.mem)]
	}
	w.off += int64(len(w.cur))
	w.blocks = append(w.blocks, bm)
	w.cur = w.cur[:0]
	w.curCount = 0
	for i := range w.chain {
		w.chain[i] = [NumSegments]uint64{}
	}
	return nil
}

// Count returns the number of accesses added so far.
func (w *BlockWriter) Count() int { return w.n }

// Finish seals the final partial block and returns the immutable store.
// The writer must not be used afterwards.
func (w *BlockWriter) Finish() (*Compressed, error) {
	if err := w.flushBlock(); err != nil {
		return nil, err
	}
	return &Compressed{blocks: w.blocks, spill: w.spill, n: w.n, blockLen: w.blockLen}, nil
}

// Compress block-compresses a slice of accesses in memory (0 block length
// selects DefaultBlockLen). Convenience for tests and one-shot callers; the
// streaming paths use a BlockWriter directly.
func Compress(accesses []Access, blockLen int) (*Compressed, error) {
	w := NewBlockWriter(blockLen, nil)
	for _, a := range accesses {
		if err := w.Add(a); err != nil {
			return nil, err
		}
	}
	return w.Finish()
}

// Len returns the number of accesses in the recording.
func (c *Compressed) Len() int { return c.n }

// StoredBytes implements Recording: total encoded bytes (on disk when
// spilled, in memory otherwise).
func (c *Compressed) StoredBytes() int64 {
	var total int64
	for _, bm := range c.blocks {
		total += int64(bm.size)
	}
	return total
}

// Spilled reports whether block bytes live in a SpillFile rather than RAM.
func (c *Compressed) Spilled() bool { return c.spill != nil }

// Cursor implements Recording.
func (c *Compressed) Cursor() Cursor { return c.View() }

// View returns a fresh decoding cursor positioned at the start. Views are
// independent and may run concurrently (the store is immutable and spill
// reads are offset-addressed); a single view is not concurrent-safe.
func (c *Compressed) View() *CompressedView {
	v := &CompressedView{
		d:     blockDecoder{c: c, win: make([]Access, 0, c.blockLen)},
		spare: make([]Access, 0, c.blockLen),
		done:  make(chan bool, 1),
	}
	v.ahead = v.decodeAhead
	return v
}

// CompressedView decodes a Compressed recording block by block into two
// reused windows. NextBatch hands out the window holding the block decoded
// last, then starts decoding the following block into the other window —
// the one the caller released by this very call — on a short-lived
// goroutine, so block k+1 decodes while the caller works on block k. The
// BatchStream lifetime contract applies with teeth: the decode in flight
// writes the window handed out one call earlier, and the NextBatch after
// next hands that storage out again (TestCompressedWindowReuse; -race
// reports a consumer that retains a window).
type CompressedView struct {
	d     blockDecoder // owned by the decode in flight while busy
	spare []Access     // the window handed out last
	busy  bool         // a decode was started and its result not yet collected
	// done carries the decode's result (whether d.win holds a block). One
	// slot lets the goroutine of a view dropped mid-stream finish its block
	// and exit without a receiver.
	done  chan bool
	ahead func() // v.decodeAhead, bound once so that a spawn allocates nothing
	err   error
}

// blockDecoder is a view's decode state: the next block to decode, the
// window it decodes into, and what a decode reuses. Only one decode runs at
// a time, so one copy serves both windows.
type blockDecoder struct {
	c     *Compressed
	block int
	win   []Access
	rbuf  []byte // reused spill read buffer
	err   error

	// Decode-side delta chains, cleared per block like the writer's.
	chain [256][NumSegments]uint64
}

// Err returns the first decode error encountered (wrapping ErrBadTrace for
// corrupt block bytes), or nil. A bad block k is reported by the NextBatch
// that follows block k-1, in stream order, never earlier.
func (v *CompressedView) Err() error { return v.err }

// Rewind resets the cursor to the beginning of the recording, after waiting
// for any decode in flight. A decode error is cleared; re-reading will
// re-detect corruption at the same block.
func (v *CompressedView) Rewind() {
	if v.busy {
		v.wait()
	}
	v.d.block = 0
	v.d.err = nil
	v.err = nil
}

// NextBatch implements BatchStream: the next block, decoded into one of the
// two reused windows. The returned slice is only valid until the next
// NextBatch call.
func (v *CompressedView) NextBatch() []Access {
	var ok bool
	if v.busy {
		ok = v.wait()
	} else {
		// Nothing in flight (first call after View or Rewind, or past the
		// end): decode on the caller's goroutine.
		ok = v.d.decodeNextBlock()
	}
	if !ok {
		v.err = v.d.err
		return nil
	}
	win := v.d.win
	v.d.win, v.spare = v.spare, win
	if v.d.block < len(v.d.c.blocks) {
		v.busy = true
		go v.ahead()
	}
	return win[:len(win):len(win)]
}

// decodeAhead is the body of the decode goroutine.
func (v *CompressedView) decodeAhead() { v.done <- v.d.decodeNextBlock() }

// wait collects the decode in flight and returns its result.
func (v *CompressedView) wait() bool {
	v.busy = false
	return <-v.done
}

// decodeNextBlock decodes the next non-empty block into the window d.win.
// It returns false at end of recording or on a decode error (see d.err).
// Zero-count blocks (never produced by BlockWriter, but representable) are
// validated and skipped — surfacing an empty window would read as a
// premature end of stream to NextBatch consumers.
func (d *blockDecoder) decodeNextBlock() bool {
	for !d.decodeBlock() {
		if d.err != nil || d.block >= len(d.c.blocks) {
			return false
		}
	}
	return true
}

// decodeBlock decodes the next block; it reports whether the window now
// holds at least one access.
func (d *blockDecoder) decodeBlock() bool {
	if d.err != nil || d.block >= len(d.c.blocks) {
		return false
	}
	bm := d.c.blocks[d.block]
	var data []byte
	if d.c.spill != nil {
		if cap(d.rbuf) < int(bm.size) {
			d.rbuf = make([]byte, bm.size)
		}
		d.rbuf = d.rbuf[:bm.size]
		if _, err := d.c.spill.ReadAt(d.rbuf, bm.off); err != nil {
			d.err = fmt.Errorf("%w: reading spilled block %d: %v", ErrBadTrace, d.block, err)
			return false
		}
		data = d.rbuf
	} else {
		data = bm.data
	}
	d.block++
	for i := range d.chain {
		d.chain[i] = [NumSegments]uint64{}
	}

	if cap(d.win) < int(bm.count) {
		d.win = make([]Access, bm.count)
	}
	win := d.win[:bm.count]
	pos := 0
	// Hot decode loop. The guard must budget maxRecordLen, the full varint
	// width, or the unchecked delta reads below can run past the block. When
	// at least that much input remains, the fast path decodes the dominant
	// 1-2 byte varint shapes without per-byte bounds tests. The tail of the
	// block (and any corrupt input the guard can't vouch for) goes through
	// the fully checked decodeRecordSlow.
	packed := packedStore
	for i := range win {
		if len(data)-pos < maxRecordLen {
			n, ok := d.decodeRecordSlow(data, pos, win, i)
			if !ok {
				return false
			}
			pos = n
			continue
		}
		meta := data[pos]
		pos++
		kind := Kind(meta >> 6)
		if kind >= NumKinds {
			d.err = fmt.Errorf("%w: invalid kind %d", ErrBadTrace, kind)
			return false
		}
		seg := Segment(meta >> 4 & 0x03)
		thread := meta & 0x0f
		if thread == threadEscape {
			thread = data[pos]
			pos++
		}
		var size uint64
		if b := data[pos]; b < 0x80 {
			size = uint64(b)
			pos++
		} else {
			var ok bool
			size, pos, ok = uvarintAt(data, pos)
			if !ok || size > math.MaxUint16 {
				d.err = fmt.Errorf("%w: bad size at record %d", ErrBadTrace, i)
				return false
			}
		}
		var udelta uint64
		if b := data[pos]; b < 0x80 {
			udelta = uint64(b)
			pos++
		} else if b2 := data[pos+1]; b2 < 0x80 {
			udelta = uint64(b&0x7f) | uint64(b2)<<7
			pos += 2
		} else if b3 := data[pos+2]; b3 < 0x80 {
			udelta = uint64(b&0x7f) | uint64(b2&0x7f)<<7 | uint64(b3)<<14
			pos += 3
		} else if b4 := data[pos+3]; b4 < 0x80 {
			udelta = uint64(b&0x7f) | uint64(b2&0x7f)<<7 | uint64(b3&0x7f)<<14 | uint64(b4)<<21
			pos += 4
		} else {
			var ok bool
			udelta, pos, ok = uvarintAt(data, pos)
			if !ok {
				d.err = fmt.Errorf("%w: bad addr delta at record %d", ErrBadTrace, i)
				return false
			}
		}
		delta := int64(udelta>>1) ^ -int64(udelta&1) // branchless zigzag
		addr := d.chain[thread][seg] + uint64(delta)
		d.chain[thread][seg] = addr
		if packed {
			// Two 8-byte stores instead of five narrow field stores: the
			// composite-literal form costs ~5x as much per record here
			// (store-buffer pressure from the byte/word stores dominates the
			// whole decode loop).
			p := (*[2]uint64)(unsafe.Pointer(&win[i]))
			p[0] = addr
			p[1] = size | uint64(seg)<<16 | uint64(kind)<<24 | uint64(thread)<<32
		} else {
			win[i] = Access{Addr: addr, Size: uint16(size), Seg: seg, Kind: kind, Thread: thread}
		}
	}
	if pos != len(data) {
		d.err = fmt.Errorf("%w: %d trailing bytes after block", ErrBadTrace, len(data)-pos)
		return false
	}
	d.win = win
	return len(win) > 0
}

// decodeRecordSlow is the fully bounds-checked record decoder used near the
// end of a block's bytes (or whenever the fast path's length guard fails).
// It decodes record i into win and returns the new read position; on
// malformed input it sets d.err and reports ok=false.
func (d *blockDecoder) decodeRecordSlow(data []byte, pos int, win []Access, i int) (int, bool) {
	if pos >= len(data) {
		d.err = fmt.Errorf("%w: block truncated at record %d", ErrBadTrace, i)
		return pos, false
	}
	meta := data[pos]
	pos++
	kind := Kind(meta >> 6)
	if kind >= NumKinds {
		d.err = fmt.Errorf("%w: invalid kind %d", ErrBadTrace, kind)
		return pos, false
	}
	seg := Segment(meta >> 4 & 0x03)
	thread := meta & 0x0f
	if thread == threadEscape {
		if pos >= len(data) {
			d.err = fmt.Errorf("%w: block truncated in thread byte", ErrBadTrace)
			return pos, false
		}
		thread = data[pos]
		pos++
	}
	size, next, ok := uvarintAt(data, pos)
	if !ok || size > math.MaxUint16 {
		d.err = fmt.Errorf("%w: bad size at record %d", ErrBadTrace, i)
		return pos, false
	}
	pos = next
	udelta, next, ok := uvarintAt(data, pos)
	if !ok {
		d.err = fmt.Errorf("%w: bad addr delta at record %d", ErrBadTrace, i)
		return pos, false
	}
	pos = next
	delta := int64(udelta >> 1)
	if udelta&1 != 0 {
		delta = ^delta
	}
	addr := d.chain[thread][seg] + uint64(delta)
	d.chain[thread][seg] = addr
	win[i] = Access{Addr: addr, Size: uint16(size), Seg: seg, Kind: kind, Thread: thread}
	return pos, true
}

// packedStore reports whether the decode loop may write an Access as two
// aligned 8-byte words: the host must be little-endian and Access must have
// the expected 16-byte layout (Addr at 0; Size/Seg/Kind/Thread packed at
// 8/10/11/12). Anything else falls back to ordinary field stores.
var packedStore = func() bool {
	var a Access
	if unsafe.Sizeof(a) != 16 ||
		unsafe.Offsetof(a.Addr) != 0 ||
		unsafe.Offsetof(a.Size) != 8 ||
		unsafe.Offsetof(a.Seg) != 10 ||
		unsafe.Offsetof(a.Kind) != 11 ||
		unsafe.Offsetof(a.Thread) != 12 {
		return false
	}
	x := uint32(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// uvarintAt decodes a uvarint from data at pos without an io.Reader in the
// way; it returns ok=false on truncation or 64-bit overflow.
func uvarintAt(data []byte, pos int) (u uint64, next int, ok bool) {
	var shift uint
	for pos < len(data) {
		b := data[pos]
		pos++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				return 0, pos, false
			}
			return u | uint64(b)<<shift, pos, true
		}
		u |= uint64(b&0x7f) << shift
		shift += 7
		if shift >= 64 {
			return 0, pos, false
		}
	}
	return 0, pos, false
}
