package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// The fuzz targets pin the codec robustness contract from two sides:
//
//   - decode targets feed arbitrary bytes to the decoders and require
//     "no panic; every failure is ErrBadTrace" — corrupt input must never
//     decode silently into garbage accesses (the uint16(size) narrowing bug)
//     or crash the replayer;
//   - round-trip targets derive a valid access stream from the fuzz input
//     and require encode→decode identity through both the file codec and
//     the block codec (with several block geometries).
//
// `make fuzz-smoke` runs each target briefly in CI; the committed corpus
// under testdata/fuzz/ seeds them with a valid trace and known-nasty
// corruptions (varint overflow, oversize size, truncated records).

// fuzzAccesses derives a deterministic valid access stream from raw fuzz
// bytes: 12 input bytes per access. Thread is clamped to the file codec's
// 4-bit range so the same stream round-trips through both codecs.
func fuzzAccesses(data []byte) []Access {
	var out []Access
	for len(data) >= 12 {
		out = append(out, Access{
			Addr:   binary.LittleEndian.Uint64(data[:8]),
			Size:   binary.LittleEndian.Uint16(data[8:10]),
			Seg:    Segment(data[10] % NumSegments),
			Kind:   Kind(data[10] / NumSegments % NumKinds),
			Thread: data[11] & maxCodecThread,
		})
		data = data[12:]
	}
	return out
}

// encodeFile serializes accesses with the file codec.
func encodeFile(t testing.TB, accesses []Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, a := range accesses {
		if err := w.Write(a); err != nil {
			t.Fatalf("Write(%v): %v", a, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// FuzzFileCodecDecode feeds arbitrary bytes to the file-codec reader. The
// contract: no panic, and every non-clean outcome is ErrBadTrace.
func FuzzFileCodecDecode(f *testing.F) {
	// A valid two-record trace, and surgical corruptions of it.
	valid := encodeFile(f, []Access{
		{Addr: 4096, Size: 64, Seg: Heap, Kind: Read, Thread: 3},
		{Addr: 4160, Size: 64, Seg: Heap, Kind: Read, Thread: 3},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                       // truncated final record
	f.Add(append(bytes.Clone(valid), 0x00))           // trailing meta, no body
	f.Add([]byte("SMTR\x01\x00\x00\x00"))             // header only
	f.Add([]byte("SMTR\x02\x00\x00\x00"))             // bad version
	f.Add([]byte("XXXX\x01\x00\x00\x00\x00\x40\x00")) // bad magic
	// Oversize size field: meta then uvarint 1<<20.
	f.Add(append([]byte("SMTR\x01\x00\x00\x00"), 0x00, 0x80, 0x80, 0xc0, 0x00))
	// 10-byte varint overflow in the size position.
	f.Add(append([]byte("SMTR\x01\x00\x00\x00"), 0x00,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("NewReader: non-ErrBadTrace error %v", err)
			}
			return
		}
		var a Access
		for r.Next(&a) {
			if a.Kind >= NumKinds || a.Seg >= NumSegments || a.Thread > maxCodecThread {
				t.Fatalf("decoded out-of-range access %v", a)
			}
		}
		if err := r.Err(); err != nil && !errors.Is(err, ErrBadTrace) {
			t.Fatalf("Err: non-ErrBadTrace error %v", err)
		}
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
		v := c.View()
		n := 0
		for b := v.NextBatch(); len(b) > 0; b = v.NextBatch() {
			for _, a := range b {
				if a.Kind >= NumKinds || a.Seg >= NumSegments {
					t.Fatalf("decoded out-of-range access %v", a)
				}
			}
			n += len(b)
		}
		if err := v.Err(); err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("Err: non-ErrBadTrace error %v", err)
			}
		} else if n != int(count) {
			t.Fatalf("clean decode of %d records, claimed %d", n, count)
		}
	})
}

// FuzzCodecRoundTrip derives a valid access stream from the fuzz input and
// requires encode→decode identity through the file codec and through the
// block codec at a fuzz-chosen geometry (including blocks the stream
// straddles, and a rewind re-read).
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(bytes.Repeat([]byte{0xa5}, 12*3), uint16(1))
	f.Add(bytes.Repeat([]byte{0x11, 0x47}, 6*5), uint16(2))

	f.Fuzz(func(t *testing.T, data []byte, blockLen uint16) {
		want := fuzzAccesses(data)

		r, err := NewReader(bytes.NewReader(encodeFile(t, want)))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		var a Access
		fi := 0
		for r.Next(&a) {
			if fi >= len(want) {
				t.Fatalf("file codec decoded extra record %v", a)
			}
			if a != want[fi] {
				t.Fatalf("file codec record %d = %v, want %v", fi, a, want[fi])
			}
			fi++
		}
		if err := r.Err(); err != nil {
			t.Fatalf("file codec Err: %v", err)
		}
		if fi != len(want) {
			t.Fatalf("file codec decoded %d records, want %d", fi, len(want))
		}

		c, err := Compress(want, int(blockLen))
		if err != nil {
			t.Fatalf("Compress: %v", err)
		}
		v := c.View()
		for pass := 0; pass < 2; pass++ {
			i := 0
			for b := v.NextBatch(); len(b) > 0; b = v.NextBatch() {
				for _, a := range b {
					if i >= len(want) {
						t.Fatalf("pass %d: block codec decoded extra record %v", pass, a)
					}
					if a != want[i] {
						t.Fatalf("pass %d: block codec record %d = %v, want %v", pass, i, a, want[i])
					}
					i++
				}
			}
			if err := v.Err(); err != nil {
				t.Fatalf("pass %d: block codec Err: %v", pass, err)
			}
			if i != len(want) {
				t.Fatalf("pass %d: block codec decoded %d records, want %d", pass, i, len(want))
			}
			v.Rewind()
		}
	})
}
