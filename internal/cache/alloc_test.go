//go:build !race

// Allocation-regression oracles for the //lint:hot simulator kernels. The
// searchlint hotalloc analyzer proves these paths allocation-free statically;
// these tests pin the same property dynamically with testing.AllocsPerRun so
// a regression that slips past the analyzer (compiler change, unsummarized
// callee, heuristic blind spot) still fails CI. Excluded under -race because
// race instrumentation inserts allocations of its own.

package cache

import (
	"testing"

	"searchmem/internal/det"
)

// requireZeroAllocs runs f through testing.AllocsPerRun (which performs one
// warm-up call before measuring, absorbing any one-time lazy growth) and
// fails if steady-state allocations are nonzero.
func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(10, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, avg)
	}
}

// TestHierarchyAccessBatchZeroAlloc drives the full-hierarchy batched kernel
// across every equivalence-suite configuration (policies, L4 variants, split
// L2s, fully-associative levels), both with nil levels and with a
// caller-provided cap-sized levels slice (the documented no-growth contract).
// The "owners" point is four cores over an inclusive L3 smaller than their
// private caches together, so the steady state evicts from the L3 and
// back-invalidates through the core-valid filter (owner byte read, set and
// cleared).
func TestHierarchyAccessBatchZeroAlloc(t *testing.T) {
	batch := batchEquivTrace(12, 4096, 4)
	cfgs := equivConfigs()
	own := tinyHierarchy(4, nil)
	own.L3.Size = 8 << 10
	cfgs["owners"] = own
	for _, name := range det.SortedKeys(cfgs) {
		h := NewHierarchy(cfgs[name])
		requireZeroAllocs(t, name+"/nil-levels", func() {
			h.AccessBatch(batch, nil)
		})
		levels := make([]HitLevel, 0, len(batch))
		requireZeroAllocs(t, name+"/cap-levels", func() {
			levels = h.AccessBatch(batch, levels[:0])
		})
		if len(levels) != len(batch) {
			t.Fatalf("%s: %d levels for %d accesses", name, len(levels), len(batch))
		}
		if bi := h.L1Stats().BackInvalidations + h.L2Stats().BackInvalidations; name == "owners" && (h.l3.owners == nil || bi == 0) {
			t.Errorf("owners: filter on = %v, %d back-invalidations; the point must exercise both", h.l3.owners != nil, bi)
		}
	}
}

// TestHierarchyDrainBatchZeroAlloc pins the drain loop end to end: a shared
// flat recording handed out window by window and replayed through a
// hierarchy, with and without an L4.
func TestHierarchyDrainBatchZeroAlloc(t *testing.T) {
	v := flatRecording(batchEquivTrace(13, 20_000, 2)).View()
	for name, l4 := range map[string]*Config{"no-l4": nil, "l4": {Size: 32 << 10, BlockSize: 64, Assoc: 4}} {
		h := NewHierarchy(tinyHierarchy(2, l4))
		requireZeroAllocs(t, "drain/"+name, func() {
			v.Rewind()
			drainBatch(h, v)
		})
	}
}
