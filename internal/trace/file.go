package trace

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Trace file format (.smtr, little-endian). A trace file is a spilled
// Compressed recording plus what is needed to reopen it:
//
//	header:  magic "SMTR" | version u32 (2) | block length u32
//	blocks:  the blocks BlockWriter seals, back to back (block.go's records)
//	table:   per block: access count u32 | byte size u32
//	trailer: block count u32 | magic "SMTR"
//
// The file is written through a BlockWriter whose spill is the file itself,
// so writing holds one block, and reopened as a Compressed whose spill is the
// file, so replay holds one decoded window: both ends use the block codec's
// one encoder and one decoder.

var fileMagic = [4]byte{'S', 'M', 'T', 'R'}

const (
	fileVersion    = 2
	fileHeaderLen  = 12
	fileTrailerLen = 8
	tableEntryLen  = 8
)

// NewFileWriter writes a trace file header to f and returns a BlockWriter
// that spills each sealed block into f right behind it. blockLen is in
// 0..DefaultBlockLen (0 selects DefaultBlockLen). Seal the file with
// FinishFile.
func NewFileWriter(f SpillFile, blockLen int) (*BlockWriter, error) {
	if blockLen > DefaultBlockLen {
		return nil, fmt.Errorf("trace: file block length %d exceeds %d", blockLen, DefaultBlockLen)
	}
	w := NewBlockWriter(blockLen, f)
	hdr := binary.LittleEndian.AppendUint32(fileMagic[:], fileVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(w.blockLen))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("trace: writing file header: %w", err)
	}
	w.off = fileHeaderLen
	return w, nil
}

// FinishFile seals the final block, appends the block table and the
// trailer, and returns the recording, whose spill is the file. The writer
// must come from NewFileWriter and must not be used afterwards.
func (w *BlockWriter) FinishFile() (*Compressed, error) {
	c, err := w.Finish()
	if err != nil {
		return nil, err
	}
	tail := make([]byte, 0, tableEntryLen*len(c.blocks)+fileTrailerLen)
	for _, bm := range c.blocks {
		tail = binary.LittleEndian.AppendUint32(tail, uint32(bm.count))
		tail = binary.LittleEndian.AppendUint32(tail, uint32(bm.size))
	}
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(c.blocks)))
	tail = append(tail, fileMagic[:]...)
	if _, err := w.spill.WriteAt(tail, w.off); err != nil {
		return nil, fmt.Errorf("trace: writing block table: %w", err)
	}
	return c, nil
}

// OpenFile validates the header, block table and trailer of the size-byte
// trace file r and returns its recording, whose spill is r. Every table
// entry is checked before a view can size anything by it: a block holds
// 1..block length accesses (at most DefaultBlockLen) in at most maxRecordLen
// bytes each, and the blocks tile the file exactly from the header to the
// table. Block bytes are read and checked only as a view decodes them. Every
// failure wraps ErrBadTrace.
func OpenFile(r io.ReaderAt, size int64) (*Compressed, error) {
	bad := func(format string, args ...any) (*Compressed, error) {
		return nil, fmt.Errorf("%w: "+format, append([]any{ErrBadTrace}, args...)...)
	}
	if size < fileHeaderLen+fileTrailerLen {
		return bad("short file (%d bytes)", size)
	}
	var hdr [fileHeaderLen]byte
	var tr [fileTrailerLen]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return bad("reading header: %v", err)
	}
	if _, err := r.ReadAt(tr[:], size-fileTrailerLen); err != nil {
		return bad("reading trailer: %v", err)
	}
	switch {
	case [4]byte(hdr[:4]) != fileMagic:
		return bad("bad magic")
	case binary.LittleEndian.Uint32(hdr[4:]) != fileVersion:
		return bad("unsupported version %d", binary.LittleEndian.Uint32(hdr[4:]))
	case [4]byte(tr[4:]) != fileMagic:
		return bad("bad trailer")
	}
	blockLen := binary.LittleEndian.Uint32(hdr[8:])
	if blockLen < 1 || blockLen > DefaultBlockLen {
		return bad("block length %d out of 1..%d", blockLen, DefaultBlockLen)
	}
	nblocks := int64(binary.LittleEndian.Uint32(tr[:4]))
	tableOff := size - fileTrailerLen - tableEntryLen*nblocks
	if tableOff < fileHeaderLen {
		return bad("table of %d blocks overruns the %d-byte file", nblocks, size)
	}
	// The table fits in the file, so it and the block list are bounded by
	// the file's own size, not by anything the file claims.
	table := make([]byte, tableEntryLen*nblocks)
	if _, err := r.ReadAt(table, tableOff); err != nil {
		return bad("reading block table: %v", err)
	}
	c := &Compressed{blocks: make([]blockMeta, nblocks), spill: r, blockLen: int(blockLen)}
	off := int64(fileHeaderLen)
	for i := range c.blocks {
		e := table[tableEntryLen*i:]
		count, n := binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint32(e[4:])
		if count < 1 || count > blockLen {
			return bad("block %d holds %d accesses, want 1..%d", i, count, blockLen)
		}
		if n > maxRecordLen*count {
			return bad("block %d: %d bytes for %d accesses", i, n, count)
		}
		c.blocks[i] = blockMeta{off: off, size: int32(n), count: int32(count)}
		off += int64(n)
		c.n += int(count)
	}
	if off != tableOff {
		return bad("blocks end at byte %d, table starts at %d", off, tableOff)
	}
	return c, nil
}
