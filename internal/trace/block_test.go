package trace

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"searchmem/internal/stats"
)

// blockTestTrace synthesizes a trace mixing sequential scans (the
// compression-friendly case), random jumps, negative deltas, every segment
// and kind, and the full uint8 thread range (exercising the escape byte).
func blockTestTrace(seed uint64, n int) []Access {
	rng := stats.NewRNG(seed)
	accs := make([]Access, 0, n)
	seq := uint64(1 << 30)
	for i := 0; i < n; i++ {
		var addr uint64
		switch rng.Intn(3) {
		case 0: // sequential scan
			seq += 64
			addr = seq
		case 1: // hot reuse
			addr = uint64(rng.Intn(1 << 12))
		default: // cold jump, may produce huge or negative deltas
			addr = rng.Uint64()
		}
		thread := uint8(rng.Intn(256))
		if i%5 == 0 {
			thread = uint8(rng.Intn(4)) // keep a few dense chains
		}
		accs = append(accs, Access{
			Addr:   addr,
			Size:   uint16(1 + rng.Intn(256)),
			Seg:    Segment(rng.Intn(NumSegments)),
			Kind:   Kind(rng.Intn(NumKinds)),
			Thread: thread,
		})
	}
	return accs
}

// drainBatched collects a cursor's stream (copying each window).
func drainBatched(c Cursor) []Access {
	var out []Access
	for {
		b := c.NextBatch()
		if len(b) == 0 {
			return out
		}
		out = append(out, b...)
	}
}

func requireEqual(t *testing.T, got, want []Access, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d accesses, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: access %d: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestCompressedRoundTripIdentity: compress → decode must be identity at
// block sizes that exercise single-access blocks, non-dividing sizes, and
// whole-trace blocks.
func TestCompressedRoundTripIdentity(t *testing.T) {
	in := blockTestTrace(11, 10_000)
	for _, blockLen := range []int{1, 3, 64, 1000, 8192, 20_000} {
		c, err := Compress(in, blockLen)
		if err != nil {
			t.Fatalf("blockLen %d: %v", blockLen, err)
		}
		if c.Len() != len(in) {
			t.Fatalf("blockLen %d: Len = %d, want %d", blockLen, c.Len(), len(in))
		}
		wantBlocks := (len(in) + blockLen - 1) / blockLen
		if len(c.blocks) != wantBlocks {
			t.Fatalf("blockLen %d: %d blocks, want %d", blockLen, len(c.blocks), wantBlocks)
		}
		requireEqual(t, drainBatched(c.Cursor()), in, fmt.Sprintf("batched blockLen=%d", blockLen))

		// Rewind must replay identically (per-block bases leave no state).
		v := c.View()
		drainBatched(v)
		v.Rewind()
		requireEqual(t, drainBatched(v), in, fmt.Sprintf("rewind blockLen=%d", blockLen))
		if v.Err() != nil {
			t.Fatalf("blockLen %d: Err = %v", blockLen, v.Err())
		}
	}
}

// TestCompressedMemChunkEdges records enough in-memory block bytes to fill
// several memChunkLen chunks, and one block larger than a chunk: every block
// decodes from its own clipped slice of a chunk, whichever chunk it landed in.
func TestCompressedMemChunkEdges(t *testing.T) {
	in := blockTestTrace(17, 400_000)
	for _, blockLen := range []int{DefaultBlockLen, len(in)} {
		c, err := Compress(in, blockLen)
		if err != nil {
			t.Fatalf("blockLen %d: %v", blockLen, err)
		}
		if blockLen == DefaultBlockLen && c.StoredBytes() < 2*memChunkLen {
			t.Fatalf("trace encodes to %d B, too short to cross a chunk edge", c.StoredBytes())
		}
		if blockLen == len(in) && int(c.blocks[0].size) <= memChunkLen {
			t.Fatalf("whole-trace block is %d B, not larger than a chunk", c.blocks[0].size)
		}
		for i, bm := range c.blocks {
			if len(bm.data) != int(bm.size) || cap(bm.data) != len(bm.data) {
				t.Fatalf("blockLen %d: block %d holds len %d cap %d for size %d", blockLen, i, len(bm.data), cap(bm.data), bm.size)
			}
		}
		requireEqual(t, drainBatched(c.Cursor()), in, fmt.Sprintf("chunked blockLen=%d", blockLen))
	}
}

// TestCompressedSpillRoundTrip exercises the spill-to-disk path end to end
// through a real file: identity decode, concurrent-safe offset reads, and
// bounded writer state.
func TestCompressedSpillRoundTrip(t *testing.T) {
	in := blockTestTrace(23, 25_000)
	f, err := os.Create(filepath.Join(t.TempDir(), "trace.blk"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := NewBlockWriter(512, f)
	for _, a := range in {
		if err := w.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	c, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Spilled() {
		t.Fatal("recording not marked spilled")
	}
	if st, err := f.Stat(); err != nil || st.Size() != c.StoredBytes() {
		t.Fatalf("spill file size %d, StoredBytes %d (err %v)", st.Size(), c.StoredBytes(), err)
	}
	requireEqual(t, drainBatched(c.Cursor()), in, "spilled batched")

	// Two interleaved views must not disturb each other (offset reads).
	v1, v2 := c.View(), c.View()
	var got1, got2 []Access
	for {
		b1, b2 := v1.NextBatch(), v2.NextBatch()
		if len(b1) == 0 && len(b2) == 0 {
			break
		}
		got1 = append(got1, b1...)
		got2 = append(got2, b2...)
	}
	requireEqual(t, got1, in, "interleaved view 1")
	requireEqual(t, got2, in, "interleaved view 2")
}

// TestCompressedCompression pins the compression win on the access pattern
// that motivates the store: sequential scans must stay near 3 bytes/access,
// ~5x below the 16-byte flat representation.
func TestCompressedCompression(t *testing.T) {
	const n = 100_000
	in := make([]Access, n)
	for i := range in {
		in[i] = Access{Addr: uint64(i) * 64, Size: 64, Seg: Shard, Kind: Read}
	}
	c, err := Compress(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	perAccess := float64(c.StoredBytes()) / n
	if perAccess > 4.25 {
		t.Fatalf("sequential trace uses %.2f bytes/access, want <= 4.25", perAccess)
	}
	flat := newShared(append([]Access(nil), in...))
	if float64(c.StoredBytes()) > float64(flat.StoredBytes())/3.5 {
		t.Fatalf("compressed %d B vs flat %d B: less than 3.5x win", c.StoredBytes(), flat.StoredBytes())
	}
}

// TestCompressedWindowReuse pins the decode-window rotation behind the
// BatchStream lifetime contract: a view owns two windows, the third batch is
// decoded into the first batch's storage, and the second batch's storage is
// the other window. Only the addresses of the earlier batches are compared:
// reading them after the next NextBatch would be a data race with the decode
// in flight.
func TestCompressedWindowReuse(t *testing.T) {
	in := blockTestTrace(3, 300)
	c, err := Compress(in, 100)
	if err != nil {
		t.Fatal(err)
	}
	v := c.View()
	b1 := v.NextBatch()
	b2 := v.NextBatch()
	b3 := v.NextBatch()
	if &b3[0] != &b1[0] {
		t.Fatal("third batch is not decoded into the first batch's window")
	}
	if &b2[0] == &b1[0] {
		t.Fatal("second batch shares the first batch's window")
	}
	requireEqual(t, b3, in[200:], "third batch")
}

// TestCompressedRewindInFlight: a Rewind issued while the next block is
// decoding, or after it was decoded but before a NextBatch took it, restarts
// the same stream.
func TestCompressedRewindInFlight(t *testing.T) {
	in := blockTestTrace(4, 1_000)
	c, err := Compress(in, 100)
	if err != nil {
		t.Fatal(err)
	}
	v := c.View()
	for k := 1; k <= 3; k++ {
		for _, parked := range []bool{false, true} {
			for i := 0; i < k; i++ {
				v.NextBatch() // leaves block k decoding
			}
			if parked {
				settle(t, func() bool { return len(v.done) == 1 }, "the in-flight block never reported")
			}
			v.Rewind()
			requireEqual(t, drainBatched(v), in, fmt.Sprintf("rewound after %d batches (parked %v)", k, parked))
			if v.Err() != nil {
				t.Fatalf("Err = %v", v.Err())
			}
			v.Rewind()
		}
	}
}

// TestCompressedDroppedViewExits: a view dropped with a decode in flight
// leaves no goroutine behind once that block is done.
func TestCompressedDroppedViewExits(t *testing.T) {
	in := blockTestTrace(6, 1_000)
	c, err := Compress(in, 100)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	v := c.View()
	v.NextBatch()
	if !v.busy {
		t.Fatal("no decode in flight after the first batch")
	}
	done := v.done // the view is dropped here
	// Nobody receives: the decode must park its result and exit.
	settle(t, func() bool { return len(done) == 1 }, "the in-flight block never reported")
	settle(t, func() bool { return runtime.NumGoroutine() <= base }, "the decode goroutine did not exit")
}

// settle yields until cond holds, failing the test with msg if it never does.
func settle(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i == 1_000_000 {
			t.Fatal(msg)
		}
		runtime.Gosched()
	}
}

// TestCompressedErrorInStreamOrder: a corrupt block k is decoded while the
// caller holds block k-1, but it is reported only by the NextBatch after
// blocks 0..k-1 were handed out; Err stays nil until then.
func TestCompressedErrorInStreamOrder(t *testing.T) {
	in := blockTestTrace(8, 500)
	c, err := Compress(in, 100)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 3
	c.blocks[bad].data = append([]byte{0xc0}, c.blocks[bad].data[1:]...) // kind 3 in its first record
	v := c.View()
	for k := 0; k < bad; k++ {
		b := v.NextBatch()
		// Let block k+1's decode finish: at k = bad-1 it has failed.
		settle(t, func() bool { return len(v.done) == 1 }, "the in-flight block never reported")
		if v.Err() != nil {
			t.Fatalf("block %d: Err = %v before the corrupt block was reached", k, v.Err())
		}
		requireEqual(t, b, in[k*100:(k+1)*100], fmt.Sprintf("block %d", k))
	}
	if b := v.NextBatch(); len(b) != 0 {
		t.Fatalf("corrupt block %d handed out %d accesses", bad, len(b))
	}
	if !errors.Is(v.Err(), ErrBadTrace) {
		t.Fatalf("Err = %v, want ErrBadTrace", v.Err())
	}
}

// TestCompressedCorruptBlocks: flipped, truncated, and extended block bytes
// must surface ErrBadTrace (never panic, never silently decode).
func TestCompressedCorruptBlocks(t *testing.T) {
	in := blockTestTrace(5, 500)
	c, err := Compress(in, 100)
	if err != nil {
		t.Fatal(err)
	}
	drain := func(c *Compressed) error {
		v := c.View()
		for v.NextBatch() != nil {
		}
		return v.Err()
	}
	corrupt := func(mutate func(d *Compressed)) error {
		d := &Compressed{
			blocks:   append([]blockMeta(nil), c.blocks...),
			n:        c.n,
			blockLen: c.blockLen,
		}
		for i := range d.blocks {
			d.blocks[i].data = append([]byte(nil), d.blocks[i].data...)
		}
		mutate(d)
		return drain(d)
	}

	if err := corrupt(func(d *Compressed) { b := &d.blocks[2]; b.data = b.data[:len(b.data)-1] }); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("truncated block: err = %v, want ErrBadTrace", err)
	}
	if err := corrupt(func(d *Compressed) { d.blocks[0].count++ }); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("overlong count: err = %v, want ErrBadTrace", err)
	}
	if err := corrupt(func(d *Compressed) { d.blocks[0].count-- }); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("trailing bytes: err = %v, want ErrBadTrace", err)
	}
	// An invalid kind (0b11) in the first meta byte of block 0.
	if err := corrupt(func(d *Compressed) { d.blocks[0].data[0] |= 0xc0 }); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("invalid kind: err = %v, want ErrBadTrace", err)
	}
}

// TestCompressedSpillReadError: a spill file that fails to read back (e.g.
// truncated on disk) must surface ErrBadTrace.
func TestCompressedSpillReadError(t *testing.T) {
	in := blockTestTrace(9, 1_000)
	var short shortReaderAt
	w := NewBlockWriter(100, &short)
	for _, a := range in {
		if err := w.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	c, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	short.limit = int(c.StoredBytes()) / 2 // second half unreadable
	v := c.View()
	for v.NextBatch() != nil {
	}
	if !errors.Is(v.Err(), ErrBadTrace) {
		t.Fatalf("short spill read: Err = %v, want ErrBadTrace", v.Err())
	}
}

// shortReaderAt stores writes in memory but refuses reads past limit.
type shortReaderAt struct {
	data  []byte
	limit int
}

func (s *shortReaderAt) WriteAt(p []byte, off int64) (int, error) {
	end := int(off) + len(p)
	if end > len(s.data) {
		s.data = append(s.data, make([]byte, end-len(s.data))...)
	}
	copy(s.data[off:], p)
	return len(p), nil
}

func (s *shortReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if int(off)+len(p) > s.limit {
		return 0, io.ErrUnexpectedEOF
	}
	return copy(p, s.data[off:]), nil
}

// TestBlockWriterRejectsInvalid: the block writer refuses fields the record
// meta byte cannot hold.
func TestBlockWriterRejectsInvalid(t *testing.T) {
	w := NewBlockWriter(0, nil)
	if err := w.Add(Access{Seg: Segment(9)}); err == nil {
		t.Fatal("invalid segment accepted")
	}
	if err := w.Add(Access{Kind: Kind(9)}); err == nil {
		t.Fatal("invalid kind accepted")
	}
	// The escape byte makes any uint8 thread representable.
	if err := w.Add(Access{Thread: 255, Size: 1}); err != nil {
		t.Fatalf("Thread=255 rejected: %v", err)
	}
}

// TestRecordingInterfaces pins that both stores satisfy Recording and agree
// on the stream they expose.
func TestRecordingInterfaces(t *testing.T) {
	in := blockTestTrace(13, 2_000)
	var recs []Recording
	sh := newShared(append([]Access(nil), in...))
	co, err := Compress(in, 256)
	if err != nil {
		t.Fatal(err)
	}
	recs = append(recs, sh, co)
	for i, r := range recs {
		if r.Len() != len(in) {
			t.Fatalf("recording %d: Len = %d, want %d", i, r.Len(), len(in))
		}
		requireEqual(t, drainBatched(r.Cursor()), in, fmt.Sprintf("recording %d batched", i))
		if r.StoredBytes() <= 0 {
			t.Fatalf("recording %d: StoredBytes = %d", i, r.StoredBytes())
		}
	}
	if co.StoredBytes() >= sh.StoredBytes() {
		t.Fatalf("compressed (%d B) not smaller than flat (%d B)", co.StoredBytes(), sh.StoredBytes())
	}
}
