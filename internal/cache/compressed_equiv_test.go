package cache

// State-deep equivalence for block-compressed replay (DESIGN.md §9): a
// hierarchy drained through a trace.CompressedView — any block geometry,
// in-memory or spilled — must end bit-identical to the scalar per-access
// reference, across the full policy/partitioning config matrix. This is the
// cache-level half of the tentpole equivalence proof; the experiment-level
// half (byte-identical rendered figures) lives in internal/experiments.

import (
	"os"
	"reflect"
	"testing"

	"searchmem/internal/trace"
)

// compressTrace block-compresses tr, optionally through a spill file.
func compressTrace(t *testing.T, tr []trace.Access, blockLen int, spillDir string) *trace.Compressed {
	t.Helper()
	var spill trace.SpillFile
	if spillDir != "" {
		f, err := os.CreateTemp(spillDir, "equiv-*.blk")
		if err != nil {
			t.Fatalf("spill temp file: %v", err)
		}
		t.Cleanup(func() { f.Close() })
		spill = f
	}
	w := trace.NewBlockWriter(blockLen, spill)
	for _, a := range tr {
		if err := w.Add(a); err != nil {
			t.Fatalf("Add(%v): %v", a, err)
		}
	}
	c, err := w.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return c
}

// TestCompressedDrainEquivalence drains the same trace scalar (reference),
// through compressed views at several block sizes, and through a spilled
// store, requiring bit-identical internal hierarchy state every time.
func TestCompressedDrainEquivalence(t *testing.T) {
	tr := batchEquivTrace(42, 20000, 4)
	for name, cfg := range equivConfigs() {
		t.Run(name, func(t *testing.T) {
			ref := NewHierarchy(cfg)
			for _, a := range tr {
				ref.Access(a)
			}
			refSnap := snapHierarchy(ref)

			for _, bl := range []int{1, 3, 64, 1000, trace.DefaultBlockLen, len(tr) + 1} {
				c := compressTrace(t, tr, bl, "")
				h := NewHierarchy(cfg)
				drainBatch(h, c.View())
				if !reflect.DeepEqual(snapHierarchy(h), refSnap) {
					t.Fatalf("block len %d: CompressedView replay diverges from scalar", bl)
				}
			}

			spilled := compressTrace(t, tr, 512, t.TempDir())
			if !spilled.Spilled() {
				t.Fatal("spill store not marked spilled")
			}
			h := NewHierarchy(cfg)
			drainBatch(h, spilled.View())
			if !reflect.DeepEqual(snapHierarchy(h), refSnap) {
				t.Fatal("replay over spilled store diverges from scalar")
			}
		})
	}
}
