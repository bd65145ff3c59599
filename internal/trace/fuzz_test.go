package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// The fuzz targets pin the codec robustness contract from two sides:
//
//   - decode targets feed arbitrary bytes to the trace file reader and to
//     the block decoder and require "no panic; every failure is
//     ErrBadTrace" — corrupt input must never decode silently into garbage
//     accesses, size an allocation by a claimed count, or crash the
//     replayer;
//   - the round-trip target derives a valid access stream from the fuzz
//     input and requires encode→decode identity through the block codec,
//     in memory and through a trace file, at a fuzz-chosen block length.
//
// `make fuzz-smoke` runs each target briefly in CI; the committed corpus
// under testdata/fuzz/ seeds them with valid traces and known-nasty
// corruptions (varint overflow, oversize sizes, truncated records).

// fuzzAccesses derives a deterministic valid access stream from raw fuzz
// bytes: 12 input bytes per access, any thread id included.
func fuzzAccesses(data []byte) []Access {
	var out []Access
	for len(data) >= 12 {
		out = append(out, Access{
			Addr:   binary.LittleEndian.Uint64(data[:8]),
			Size:   binary.LittleEndian.Uint16(data[8:10]),
			Seg:    Segment(data[10] % NumSegments),
			Kind:   Kind(data[10] / NumSegments % NumKinds),
			Thread: data[11],
		})
		data = data[12:]
	}
	return out
}

// encodeFile writes accesses as an in-memory trace file of blockLen-access
// blocks.
func encodeFile(t testing.TB, accesses []Access, blockLen int) []byte {
	t.Helper()
	var f shortReaderAt
	w, err := NewFileWriter(&f, blockLen)
	if err != nil {
		t.Fatalf("NewFileWriter: %v", err)
	}
	for _, a := range accesses {
		if err := w.Add(a); err != nil {
			t.Fatalf("Add(%v): %v", a, err)
		}
	}
	if _, err := w.FinishFile(); err != nil {
		t.Fatalf("FinishFile: %v", err)
	}
	return f.data
}

// openBytes opens an in-memory trace file.
func openBytes(data []byte) (*Compressed, error) {
	return OpenFile(bytes.NewReader(data), int64(len(data)))
}

// patched returns a copy of data with b written at off (from the end when
// off is negative).
func patched(data []byte, off int, b ...byte) []byte {
	if off < 0 {
		off += len(data)
	}
	out := bytes.Clone(data)
	copy(out[off:], b)
	return out
}

// requireSoundDrain drains v under the decode contract: every decoded access
// is in range, a failure wraps ErrBadTrace, and a clean drain yields the
// claimed number of accesses.
func requireSoundDrain(t *testing.T, v *CompressedView, claimed int) {
	t.Helper()
	n := 0
	for b := v.NextBatch(); len(b) > 0; b = v.NextBatch() {
		for _, a := range b {
			if a.Kind >= NumKinds || a.Seg >= NumSegments {
				t.Fatalf("decoded out-of-range access %v", a)
			}
		}
		n += len(b)
	}
	if err := v.Err(); err != nil && !errors.Is(err, ErrBadTrace) {
		t.Fatalf("Err: non-ErrBadTrace error %v", err)
	} else if err == nil && n != claimed {
		t.Fatalf("clean drain of %d accesses, %d claimed", n, claimed)
	}
}

// FuzzFileCodecDecode feeds arbitrary bytes to the trace file reader and
// drains whatever it opens. The contract: no panic, every failure wraps
// ErrBadTrace, and a clean drain yields the accesses the table claims.
func FuzzFileCodecDecode(f *testing.F) {
	// A valid one-block file (thread 200 takes the escape byte), and
	// surgical corruptions of it; its table entry is at -16 (count) and -12
	// (byte size), its trailer at -8 (block count) and -4 (magic).
	valid := encodeFile(f, []Access{
		{Addr: 4096, Size: 64, Seg: Heap, Kind: Read, Thread: 3},
		{Addr: 4160, Size: 64, Seg: Heap, Kind: Read, Thread: 200},
	}, 0)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                // truncated trailer
	f.Add(patched(valid, 0, 'X'))              // bad magic
	f.Add(patched(valid, 4, 1))                // version 1
	f.Add(patched(valid, -16, 0, 0, 0, 0x80))  // table claims 2^31 accesses
	f.Add(patched(valid, -12, 0xff, 0xff))     // oversize byte size
	f.Add(patched(valid, -8, 0))               // no blocks: the bytes do not tile
	f.Add(patched(valid, fileHeaderLen, 0xc0)) // kind 3 in the block bytes
	f.Add(patched(valid, 8, 0x01, 0x20))       // block length 8193
	f.Add(encodeFile(f, nil, 0))               // empty recording
	f.Add(patched(valid, -16, 3))              // table claims a third access

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := openBytes(data)
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("OpenFile: non-ErrBadTrace error %v", err)
			}
			return
		}
		requireSoundDrain(t, c.View(), c.Len())
	})
}

// FuzzBlockDecode feeds arbitrary bytes to the block decoder as a single
// claimed block of `count` records. Same contract as the file decoder: no
// panic, failures are ErrBadTrace, and successes decode in-range accesses.
func FuzzBlockDecode(f *testing.F) {
	// A valid block (thread 200 exercises the escape-byte path).
	if c, err := Compress([]Access{
		{Addr: 4096, Size: 64, Seg: Heap, Kind: Read, Thread: 200},
		{Addr: 4160, Size: 64, Seg: Heap, Kind: Read, Thread: 200},
	}, 0); err == nil {
		buf := c.blocks[0].data
		f.Add(buf, uint16(2))
		f.Add(buf, uint16(3))              // claims one more record than present
		f.Add(buf[:len(buf)-1], uint16(2)) // truncated
	}
	f.Add([]byte{}, uint16(0))                                         // empty block (decoder must skip, not panic)
	f.Add([]byte{0x0f}, uint16(1))                                     // escape nibble, no thread byte
	f.Add([]byte{0xc0, 0x00, 0x00}, uint16(1))                         // kind == 3
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f}, uint16(1)) // oversize size varint
	// Non-canonical 10-byte size varint encoding zero, then a truncated
	// delta: at 15 bytes this sat exactly on the old fast-path guard and
	// drove the unchecked delta reads past the block (regression: the guard
	// must budget the full 10-byte varint width, not the canonical 3 bytes).
	f.Add([]byte{0x0f, 0x07,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
		0x80, 0x80, 0x80}, uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, count uint16) {
		c := &Compressed{
			blocks:   []blockMeta{{size: int32(len(data)), count: int32(count), data: data}},
			n:        int(count),
			blockLen: DefaultBlockLen,
		}
		requireSoundDrain(t, c.View(), int(count))
	})
}

// FuzzCodecRoundTrip derives a valid access stream from the fuzz input and
// requires encode→decode identity through the one block codec at a
// fuzz-chosen block length (including blocks the stream straddles), in
// memory and through a trace file written and reopened at that length. Each
// view first stops after a fuzz-chosen number of batches, with the next
// block's decode in flight, and rewinds; it then reads the stream twice
// around a Rewind.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xa5}, 12*3), uint16(1), uint8(1))
	f.Add(bytes.Repeat([]byte{0x11, 0x47}, 6*5), uint16(2), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, blockLen uint16, rewindAt uint8) {
		want := fuzzAccesses(data)
		mem, err := Compress(want, int(blockLen))
		if err != nil {
			t.Fatalf("Compress: %v", err)
		}
		file, err := openBytes(encodeFile(t, want, int(blockLen)%(DefaultBlockLen+1)))
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		for _, rec := range []struct {
			name string
			c    *Compressed
		}{{"memory", mem}, {"file", file}} {
			v := rec.c.View()
			for i := 0; i < int(rewindAt) && len(v.NextBatch()) > 0; i++ {
			}
			v.Rewind()
			for pass := 0; pass < 2; pass++ {
				requireEqual(t, drainBatched(v), want, fmt.Sprintf("%s pass %d", rec.name, pass))
				if err := v.Err(); err != nil {
					t.Fatalf("%s pass %d: Err: %v", rec.name, pass, err)
				}
				v.Rewind()
			}
		}
	})
}
