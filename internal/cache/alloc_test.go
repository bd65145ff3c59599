//go:build !race

// The allocation gate for the simulator kernels: testing.AllocsPerRun pins
// each at zero allocations in steady state, after its warm-up call has grown
// the port logs and scratch once. Oracles by kernel:
//
//	Hierarchy.AccessBatch, with the inclusive
//	L3's back-invalidation behind OnEvict     TestHierarchyAccessBatchZeroAlloc
//	AccessBatch fed window by window          TestHierarchyDrainBatchZeroAlloc
//	Tail.Drain and Tail.predict               TestTailDrainZeroAlloc ("drain")
//	Stream.Replay into a reused port          TestTailDrainZeroAlloc ("stream replay")
//
// Excluded under -race because race instrumentation inserts allocations of
// its own.

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
// across every named decoder shape (policies, L4 variants, split L2s,
// fully-associative levels), both with nil levels and with a
// caller-provided cap-sized levels slice (the documented no-growth contract).
// Every point is four cores over an inclusive L3 smaller than their private
// caches together, so the steady state evicts from the L3 and
// back-invalidates through the core-valid filter (owner byte read, set and
// cleared), which the "lru" point checks.
func TestHierarchyAccessBatchZeroAlloc(t *testing.T) {
	batch := opsTrace(12, 4096)
	for _, name := range det.SortedKeys(namedShapes) {
		h := NewHierarchy(decodeShape(namedShapes[name].shape, namedShapes[name].tail))
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
		if bi := h.L1Stats().BackInvalidations + h.L2Stats().BackInvalidations; name == "lru" && (h.l3.owners == nil || bi == 0) {
			t.Errorf("lru: filter on = %v, %d back-invalidations; the point must exercise both", h.l3.owners != nil, bi)
		}
	}
}

// TestHierarchyDrainBatchZeroAlloc pins the drain loop end to end: a shared
// flat recording handed out window by window and replayed through a
// hierarchy, with and without an L4.
func TestHierarchyDrainBatchZeroAlloc(t *testing.T) {
	v := flatRecording(opsTrace(13, 20_000)).View()
	for name, l4 := range map[string]*Config{"no-l4": nil, "l4": {Size: 32 << 10, BlockSize: 64, Assoc: 4}} {
		h := NewHierarchy(tinyHierarchy(2, l4))
		requireZeroAllocs(t, "drain/"+name, func() {
			v.Rewind()
			drainBatch(h, v)
		})
	}
}

// TestTailDrainZeroAlloc pins the split kernel's consumers: tails of every L4
// kind, with and without a level predictor, draining an upper's port (levels
// resolved and not), and the same tails replaying the upper's recorded
// Stream through a reused scratch port.
func TestTailDrainZeroAlloc(t *testing.T) {
	batch := opsTrace(14, 4096)
	up := NewUpper(decodeShape(0x001, 0), true)
	var tails []*Tail
	for _, b := range []uint8{0x00, 0x01, 0x06, 0x0b, 0x13, 0x33} {
		tails = append(tails, NewTail(decodeShape(0x001, b)))
	}
	upLv := make([]HitLevel, 0, len(batch))
	lv := make([]HitLevel, len(batch))
	requireZeroAllocs(t, "drain", func() {
		upLv = up.AccessBatch(batch, upLv[:0])
		for _, tl := range tails {
			tl.Drain(up.Port(), nil)
			copy(lv, upLv)
			tl.Drain(up.Port(), lv)
		}
	})
	if len(up.Port().events) == 0 {
		t.Fatal("the drained port holds no post-L3 events")
	}

	var w StreamWriter
	for i := 0; i < 4; i++ {
		up.AccessBatch(batch, nil)
		w.Add(up.Port())
	}
	s := w.Finish()
	var port Port
	drain := func(p *Port) {
		for _, tl := range tails {
			tl.Drain(p, nil)
		}
	}
	requireZeroAllocs(t, "stream replay", func() { s.Replay(&port, drain) })
}
