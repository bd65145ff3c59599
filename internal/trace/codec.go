package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary trace file format (little-endian, varint-compressed):
//
//	header:  magic "SMTR" | version u8 | reserved [3]u8
//	record:  meta u8 | size uvarint | addr-delta svarint
//
// meta packs kind (2 bits), segment (2 bits), and thread (4 bits). Address
// deltas are taken per (thread, segment) pair, which makes sequential scans
// (posting lists, instruction fetch) compress to ~2 bytes per access.

var magic = [4]byte{'S', 'M', 'T', 'R'}

const (
	codecVersion = 1
	// maxCodecThread is the largest thread id the 4-bit meta field holds.
	maxCodecThread = 0x0f
)

// ErrBadTrace is returned when a trace file is malformed.
var ErrBadTrace = errors.New("trace: malformed trace file")

// Writer serializes accesses to an io.Writer in the binary trace format.
type Writer struct {
	w    *bufio.Writer
	last [16][NumSegments]uint64 // last addr per (thread low bits, segment)
	n    int64
	buf  []byte
}

// NewWriter returns a Writer that writes the file header immediately.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	header := append(magic[:], codecVersion, 0, 0, 0)
	if _, err := bw.Write(header); err != nil {
		return nil, err
	}
	return &Writer{w: bw, buf: make([]byte, 0, 2*binary.MaxVarintLen64+2)}, nil
}

// Write appends one access record. Accesses that the 8-bit meta field
// cannot represent are rejected: Seg and Kind beyond their enum ranges, and
// Thread >= 16 (the format packs the thread id into 4 bits; silently masking
// it would alias another thread's delta chain and decode back with a
// different thread id — Write→Read would not be identity).
func (w *Writer) Write(a Access) error {
	if a.Seg >= NumSegments || a.Kind >= NumKinds || a.Thread > maxCodecThread {
		return fmt.Errorf("trace: invalid access %v", a)
	}
	tid := a.Thread
	meta := byte(a.Kind)<<6 | byte(a.Seg)<<4 | tid
	delta := int64(a.Addr - w.last[tid][a.Seg])
	w.last[tid][a.Seg] = a.Addr

	w.buf = w.buf[:0]
	w.buf = append(w.buf, meta)
	w.buf = binary.AppendUvarint(w.buf, uint64(a.Size))
	w.buf = binary.AppendVarint(w.buf, delta)
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.n }

// Flush flushes buffered data to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes a binary trace file one access at a time.
type Reader struct {
	r    *bufio.Reader
	last [16][NumSegments]uint64
	err  error
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	header := make([]byte, 8)
	if _, err := io.ReadFull(br, header); err != nil {
		return nil, fmt.Errorf("%w: short header", ErrBadTrace)
	}
	if [4]byte(header[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	if header[4] != codecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, header[4])
	}
	return &Reader{r: br}, nil
}

// Next decodes the next record into a. After it returns false, Err reports
// whether the file ended cleanly.
func (r *Reader) Next(a *Access) bool {
	if r.err != nil {
		return false
	}
	meta, err := r.r.ReadByte()
	if err == io.EOF {
		return false
	}
	if err != nil {
		r.err = err
		return false
	}
	// A record started (meta byte read): from here on every failure —
	// mid-record EOF, a varint overflowing 64 bits, an out-of-range field —
	// is a malformed file, never a silent truncation. In particular the size
	// is an unbounded uvarint on the wire but a uint16 in Access; narrowing
	// without this check made a corrupt size decode to garbage modulo 65536.
	size, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("%w: truncated size", ErrBadTrace)
		return false
	}
	if size > math.MaxUint16 {
		r.err = fmt.Errorf("%w: size %d out of range", ErrBadTrace, size)
		return false
	}
	delta, err := binary.ReadVarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("%w: truncated addr", ErrBadTrace)
		return false
	}
	tid := meta & 0x0f
	seg := Segment(meta >> 4 & 0x03)
	kind := Kind(meta >> 6 & 0x03)
	if kind >= NumKinds {
		r.err = fmt.Errorf("%w: invalid kind %d", ErrBadTrace, kind)
		return false
	}
	addr := r.last[tid][seg] + uint64(delta)
	r.last[tid][seg] = addr
	*a = Access{Addr: addr, Size: uint16(size), Seg: seg, Kind: kind, Thread: tid}
	return true
}

// Err returns the first decode error encountered, or nil on clean EOF.
func (r *Reader) Err() error { return r.err }
