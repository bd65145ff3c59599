//go:build !race

// The allocation gate for the trace decode kernels: View.NextBatch
// (TestViewNextBatchZeroAlloc) and CompressedView.NextBatch with its blocks
// in memory (TestCompressedNextBatchZeroAlloc) or spilled to a file
// (TestSpilledNextBatchZeroAlloc). AllocsPerRun's warm-up call absorbs the
// documented one-time growth (decode window, spill read buffer), so steady
// state must measure exactly zero. Excluded under -race because race
// instrumentation allocates.

package trace

import (
	"os"
	"path/filepath"
	"testing"
)

func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(10, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, avg)
	}
}

// drainAll rewinds a cursor and consumes every batch, returning the access
// count so the test can verify the whole recording was actually decoded.
func drainAll(cur Cursor) int {
	cur.Rewind()
	total := 0
	for {
		b := cur.NextBatch()
		if len(b) == 0 {
			return total
		}
		total += len(b)
	}
}

// TestViewNextBatchZeroAlloc pins the flat zero-copy window path.
func TestViewNextBatchZeroAlloc(t *testing.T) {
	in := blockTestTrace(31, 30_000)
	v := newShared(in).View()
	got := 0
	requireZeroAllocs(t, "flat view", func() {
		got = drainAll(v)
	})
	if got != len(in) {
		t.Fatalf("drained %d accesses, want %d", got, len(in))
	}
}

// TestCompressedNextBatchZeroAlloc pins the block-decode path with blocks
// held in memory.
func TestCompressedNextBatchZeroAlloc(t *testing.T) {
	in := blockTestTrace(32, 30_000)
	c, err := Compress(in, 512)
	if err != nil {
		t.Fatal(err)
	}
	v := c.View()
	got := 0
	requireZeroAllocs(t, "compressed view", func() {
		got = drainAll(v)
	})
	if got != len(in) {
		t.Fatalf("drained %d accesses, want %d", got, len(in))
	}
	if v.Err() != nil {
		t.Fatalf("decode error: %v", v.Err())
	}
}

// TestSpilledNextBatchZeroAlloc pins the spill-to-disk decode path: block
// bytes are read back from a real file into the view's reused buffer, so
// steady-state replay performs file reads but no heap allocation.
func TestSpilledNextBatchZeroAlloc(t *testing.T) {
	in := blockTestTrace(33, 30_000)
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
		t.Fatal("recording not spilled")
	}
	v := c.View()
	got := 0
	requireZeroAllocs(t, "spilled view", func() {
		got = drainAll(v)
	})
	if got != len(in) {
		t.Fatalf("drained %d accesses, want %d", got, len(in))
	}
	if v.Err() != nil {
		t.Fatalf("decode error: %v", v.Err())
	}
}
