package trace

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCodecRoundTripBasic writes a trace file to disk through NewFileWriter
// and reopens it: the recording FinishFile returns and the one OpenFile
// returns both decode the written stream, every thread id included.
func TestCodecRoundTripBasic(t *testing.T) {
	in := append([]Access{
		{Addr: 0x7fff0000, Size: 16, Seg: Stack, Kind: Write, Thread: 14},
		{Addr: 0x7fff0010, Size: 16, Seg: Stack, Kind: Write, Thread: 15},
		{Addr: 0x100, Size: 1, Seg: Heap, Kind: Read, Thread: 255}, // negative delta
	}, blockTestTrace(5, 3_000)...)
	path := filepath.Join(t.TempDir(), "t.smtr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewFileWriter(f, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range in {
		if err := w.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	written, err := w.FinishFile()
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, drainBatched(written.View()), in, "written")
	f.Close()

	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenFile(f, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != len(in) || c.StoredBytes() != written.StoredBytes() {
		t.Fatalf("reopened Len %d, StoredBytes %d; want %d, %d", c.Len(), c.StoredBytes(), len(in), written.StoredBytes())
	}
	requireEqual(t, drainBatched(c.View()), in, "reopened")
}

// TestWriterRejectsInvalid: NewFileWriter refuses a block length the reader
// would reject.
func TestWriterRejectsInvalid(t *testing.T) {
	if _, err := NewFileWriter(&shortReaderAt{}, DefaultBlockLen+1); err == nil {
		t.Fatal("NewFileWriter accepted a block length the reader rejects")
	}
}

// TestCodecCompression: a trace file is exactly its recording's block bytes
// plus the header, one table entry per block and the trailer, so it is as
// compact as the recording (TestCompressedCompression bounds that).
func TestCodecCompression(t *testing.T) {
	in := blockTestTrace(9, 3_000)
	c, err := Compress(in, 256)
	if err != nil {
		t.Fatal(err)
	}
	want := c.StoredBytes() + fileHeaderLen + tableEntryLen*int64(len(c.blocks)) + fileTrailerLen
	if got := int64(len(encodeFile(t, in, 256))); got != want {
		t.Fatalf("trace file of %d blocks is %d bytes, want %d", len(c.blocks), got, want)
	}
}

// badFile is a malformed trace file and a fragment of OpenFile's error.
type badFile struct {
	name string
	data []byte
	want string
}

// requireBadFile requires OpenFile to reject each file with ErrBadTrace and
// a message containing its fragment.
func requireBadFile(t *testing.T, cases []badFile) {
	t.Helper()
	for _, tc := range cases {
		_, err := openBytes(tc.data)
		if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrBadTrace containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCodecRejectsBadHeader: the header and trailer are checked before the
// table is read.
func TestCodecRejectsBadHeader(t *testing.T) {
	valid := encodeFile(t, blockTestTrace(3, 10), 0)
	requireBadFile(t, []badFile{
		{"short", valid[:fileHeaderLen+fileTrailerLen-1], "short file (19 bytes)"},
		{"bad magic", patched(valid, 0, 'X'), "bad magic"},
		{"version 1", patched(valid, 4, 1), "unsupported version 1"},
		{"block length 0", patched(valid, 8, 0, 0), "block length 0 out of 1..8192"},
		{"block length 8193", patched(valid, 8, 0x01, 0x20), "block length 8193 out of 1..8192"},
		{"bad trailer", patched(valid, -1, 'X'), "bad trailer"},
		{"table past the header", patched(valid, -8, 0xff, 0xff, 0xff, 0xff), "table of 4294967295 blocks overruns"},
	})
}

// drainErr opens data, which must open, and returns the error its drain ends
// with: block bytes are checked only as a view decodes them.
func drainErr(t *testing.T, data []byte) error {
	t.Helper()
	c, err := openBytes(data)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	v := c.View()
	for len(v.NextBatch()) > 0 {
	}
	return v.Err()
}

// TestReaderRejectsBadTable: every block table entry is bounded before a
// view can size a window or a read buffer by it — its access count by the
// header's block length, its byte size by maxRecordLen per access — and the
// blocks must tile the file exactly up to the table.
func TestReaderRejectsBadTable(t *testing.T) {
	valid := encodeFile(t, blockTestTrace(3, 10), 0) // one block of 10
	requireBadFile(t, []badFile{
		{"zero count", patched(valid, -16, 0), "block 0 holds 0 accesses, want 1..8192"},
		{"count 2^31", patched(valid, -16, 0, 0, 0, 0x80), "block 0 holds 2147483648 accesses"},
		{"count past the block length", patched(valid, -16, 0x01, 0x20), "block 0 holds 8193 accesses"},
		{"byte size past 22 per access", patched(valid, -12, 221), "block 0: 221 bytes for 10 accesses"},
		{"short byte size", patched(valid, -12, valid[len(valid)-12]-1), "blocks end at byte"},
	})
	// The table tiles, but the bytes hold 10 records.
	if err := drainErr(t, patched(valid, -16, 11)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("block claiming an 11th access: err = %v, want ErrBadTrace", err)
	}
}

// TestReaderRejectsOversizeSize: a record whose size varint is well formed
// but over 65535 opens, and its drain fails, both in the block tail the
// checked decoder reads and ahead of a full record budget, where the fast
// path reads it.
func TestReaderRejectsOversizeSize(t *testing.T) {
	first := Access{Addr: 4096, Size: math.MaxUint16, Seg: Heap, Kind: Read}
	for name, accs := range map[string][]Access{
		"block tail": {first},
		"fast path":  append([]Access{first}, blockTestTrace(3, 20)...),
	} {
		// The first record's size varint (0xff 0xff 0x03) follows its meta
		// byte; rewrite it to 1<<20 in as many bytes.
		data := patched(encodeFile(t, accs, 0), fileHeaderLen+1, 0x80, 0x80, 0x40)
		if err := drainErr(t, data); !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "bad size at record 0") {
			t.Errorf("%s: err = %v, want ErrBadTrace containing %q", name, err, "bad size at record 0")
		}
	}
}

// TestReaderRejectsVarintOverflow: a record holding an 11-byte size varint
// inside a well-laid-out file opens, and its drain fails with ErrBadTrace.
func TestReaderRejectsVarintOverflow(t *testing.T) {
	// One 12-byte record: meta, a 1-byte size and a 10-byte delta.
	valid := encodeFile(t, []Access{{Addr: 1 << 63, Size: 64, Seg: Heap, Kind: Read}}, 0)
	overflow := append(bytes.Repeat([]byte{0x80}, 10), 0x02)
	if err := drainErr(t, patched(valid, fileHeaderLen+1, overflow...)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("varint overflow: Err = %v, want ErrBadTrace", err)
	}
}

// TestCodecTruncatedBody: every proper prefix of a trace file, and the file
// with a byte appended, fails to open.
func TestCodecTruncatedBody(t *testing.T) {
	valid := encodeFile(t, blockTestTrace(7, 300), 64)
	for n := 0; n < len(valid); n++ {
		if _, err := openBytes(valid[:n]); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("%d-byte prefix of %d: err = %v, want ErrBadTrace", n, len(valid), err)
		}
	}
	if _, err := openBytes(append(valid, 0)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("appended byte: err = %v, want ErrBadTrace", err)
	}
}
