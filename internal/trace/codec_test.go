package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"searchmem/internal/stats"
)

func roundTrip(t *testing.T, in []Access) []Access {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range in {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != int64(len(in)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(in))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return out
}

// readAll decodes every remaining record of r.
func readAll(r *Reader) []Access {
	var out []Access
	var a Access
	for r.Next(&a) {
		out = append(out, a)
	}
	return out
}

func TestCodecRoundTripBasic(t *testing.T) {
	in := []Access{
		{Addr: 0x1000, Size: 8, Seg: Heap, Kind: Read, Thread: 0},
		{Addr: 0x1008, Size: 8, Seg: Heap, Kind: Write, Thread: 0},
		{Addr: 0xdeadbeef, Size: 64, Seg: Shard, Kind: Read, Thread: 3},
		{Addr: 0x400000, Size: 4, Seg: Code, Kind: Fetch, Thread: 3},
		{Addr: 0x7fff0000, Size: 16, Seg: Stack, Kind: Write, Thread: 15},
		{Addr: 0x100, Size: 1, Seg: Heap, Kind: Read, Thread: 0}, // negative delta
	}
	out := roundTrip(t, in)
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(77)
	prop := func(n uint8) bool {
		in := make([]Access, int(n)+1)
		for i := range in {
			in[i] = Access{
				Addr:   rng.Uint64() >> 8, // keep within delta-friendly range
				Size:   uint16(1 + rng.Intn(256)),
				Seg:    Segment(rng.Intn(NumSegments)),
				Kind:   Kind(rng.Intn(NumKinds)),
				Thread: uint8(rng.Intn(16)),
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, a := range in {
			if err := w.Write(a); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		out := readAll(r)
		if r.Err() != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecCompression(t *testing.T) {
	// Sequential scans must compress to a few bytes per record.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := w.Write(Access{Addr: uint64(i) * 64, Size: 64, Seg: Shard, Kind: Read}); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	perRecord := float64(buf.Len()) / n
	if perRecord > 5 {
		t.Fatalf("sequential trace uses %.1f bytes/record, want <= 5", perRecord)
	}
}

func TestCodecRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX0000"))); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("bad magic: err = %v", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("SM"))); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("short header: err = %v", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte{'S', 'M', 'T', 'R', 99, 0, 0, 0})); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("bad version: err = %v", err)
	}
}

func TestCodecTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Access{Addr: 1 << 40, Size: 64, Seg: Heap, Kind: Read})
	w.Flush()
	data := buf.Bytes()
	// Chop the last byte so the final varint is truncated.
	r, err := NewReader(bytes.NewReader(data[:len(data)-1]))
	if err != nil {
		t.Fatal(err)
	}
	var a Access
	for r.Next(&a) {
	}
	if r.Err() == nil {
		t.Fatal("truncated body not detected")
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Write(Access{Seg: Segment(9)}); err == nil {
		t.Fatal("invalid segment accepted")
	}
	if err := w.Write(Access{Kind: Kind(9)}); err == nil {
		t.Fatal("invalid kind accepted")
	}
}

// TestWriterRejectsThreadOverflow is the regression test for the silent
// `Thread & 0x0f` mask: an access with Thread >= 16 used to alias thread
// Thread-16's delta chain and decode back with a different thread id.
// The writer must reject it instead, and Write→Read must stay identity for
// every representable thread.
func TestWriterRejectsThreadOverflow(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Write(Access{Addr: 0x1000, Size: 8, Seg: Heap, Kind: Read, Thread: 16}); err == nil {
		t.Fatal("Thread=16 accepted; it cannot round-trip through the 4-bit meta field")
	}
	if err := w.Write(Access{Thread: 255, Size: 1}); err == nil {
		t.Fatal("Thread=255 accepted")
	}
	if w.Count() != 0 {
		t.Fatalf("rejected writes counted: Count = %d", w.Count())
	}
	// The boundary thread 15 must still round-trip exactly.
	in := []Access{
		{Addr: 0x10, Size: 1, Seg: Heap, Kind: Read, Thread: 15},
		{Addr: 0x20, Size: 2, Seg: Heap, Kind: Write, Thread: 0},
		{Addr: 0x18, Size: 4, Seg: Heap, Kind: Read, Thread: 15},
	}
	out := roundTrip(t, in)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

// TestReaderRejectsOversizeSize is the regression test for the silent
// uint16(size) narrowing: a record whose size uvarint exceeds 65535 must
// fail with ErrBadTrace instead of decoding to size modulo 65536.
func TestReaderRejectsOversizeSize(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Access{Addr: 0x40, Size: 8, Seg: Heap, Kind: Read})
	w.Flush()
	// Append a hand-built record whose size varint encodes 1<<20.
	rec := []byte{byte(Read)<<6 | byte(Heap)<<4 | 0}
	rec = binary.AppendUvarint(rec, 1<<20)
	rec = binary.AppendVarint(rec, 64)
	buf.Write(rec)

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var a Access
	if !r.Next(&a) {
		t.Fatalf("first (valid) record not decoded: %v", r.Err())
	}
	if r.Next(&a) {
		t.Fatalf("oversize record decoded silently as %+v", a)
	}
	if !errors.Is(r.Err(), ErrBadTrace) {
		t.Fatalf("oversize size: Err = %v, want ErrBadTrace", r.Err())
	}
}

// TestReaderRejectsVarintOverflow: a size varint overflowing 64 bits must
// also surface as ErrBadTrace, not hang or decode.
func TestReaderRejectsVarintOverflow(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Flush()
	body := []byte{byte(Read)<<6 | byte(Heap)<<4 | 0}
	body = append(body, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02) // 11-byte uvarint
	buf.Write(body)
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var a Access
	if r.Next(&a) {
		t.Fatal("overflowing varint decoded")
	}
	if !errors.Is(r.Err(), ErrBadTrace) {
		t.Fatalf("varint overflow: Err = %v, want ErrBadTrace", r.Err())
	}
}
