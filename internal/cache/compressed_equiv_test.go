package cache

// State-deep equivalence for block-compressed replay (DESIGN.md §9): a
// hierarchy drained through a trace.CompressedView — any block geometry,
// in-memory or spilled — must end bit-identical to one fed access by access,
// across the named decoder shapes. The block lengths double as batch sizes
// from one access to the whole trace, so this is also the kernel's
// state-deep batch-split check. This is the cache-level half of the
// tentpole equivalence proof; the experiment-level half (byte-identical
// rendered figures) lives in internal/experiments.

import (
	"os"
	"reflect"
	"slices"
	"testing"

	"searchmem/internal/trace"
)

// snapCache is a cache's counters, arrays (tags, stamps, meta, occupancy,
// owners, dead-block table) and registers (clock, line buffer, PSEL), and
// its fully-associative lines in recency order. It aliases c's arrays, so
// take it after c's last access.
func snapCache(c *Cache) []any {
	s := []any{c.Stats, c.tags, c.stamps, c.meta, c.occ, c.owners, c.clock, c.lastBlock, c.psel, c.db}
	for i := c.faHead; c.assoc == 0 && i >= 0; i = c.faNodes[i].next {
		s = append(s, c.faNodes[i].line)
	}
	return s
}

// snapHierarchy is every cache of h and its tail, the memory counters, and
// the level predictor's table, counters, overlay and per-thread fetch keys.
func snapHierarchy(h *Hierarchy) []any {
	s := []any{h.MemReads, h.MemWrites, h.PrefetchFills, h.PrefetchMemReads}
	for _, c := range slices.Concat([]*Cache{h.l3}, h.l1i, h.l1d, h.l2, h.l2i) {
		s = append(s, snapCache(c))
	}
	if h.l4 != nil {
		s = append(s, snapCache(h.l4))
	}
	if p := h.pred; p != nil {
		s = append(s, p.tags, p.level, p.conf, p.Stats, h.l2Pred, h.l3Pred, h.lastFetch)
	}
	return s
}

// TestCompressedDrainEquivalence drains the same trace access by access,
// through compressed views at several block lengths, and through a spilled
// store (the negative block length), requiring bit-identical internal
// hierarchy state every time.
func TestCompressedDrainEquivalence(t *testing.T) {
	tr := opsTrace(42, 20000)
	for name, s := range namedShapes {
		cfg := decodeShape(s.shape, s.tail)
		t.Run(name, func(t *testing.T) {
			ref := NewHierarchy(cfg)
			for _, a := range tr {
				ref.Access(a)
			}
			want := snapHierarchy(ref)
			for _, bl := range []int{1, 3, 64, 1000, trace.DefaultBlockLen, len(tr) + 1, -512} {
				var spill trace.SpillFile
				if bl < 0 {
					f, err := os.CreateTemp(t.TempDir(), "equiv-*.blk")
					if err != nil {
						t.Fatalf("spill temp file: %v", err)
					}
					defer f.Close()
					spill, bl = f, -bl
				}
				w := trace.NewBlockWriter(bl, spill)
				for _, a := range tr {
					if err := w.Add(a); err != nil {
						t.Fatalf("Add(%v): %v", a, err)
					}
				}
				c, err := w.Finish()
				if err != nil {
					t.Fatalf("block len %d: Finish: %v", bl, err)
				} else if c.Spilled() != (spill != nil) {
					t.Fatalf("block len %d: Spilled() = %v with spill file %v", bl, c.Spilled(), spill != nil)
				}
				h := NewHierarchy(cfg)
				drainBatch(h, c.View())
				if !reflect.DeepEqual(snapHierarchy(h), want) {
					t.Fatalf("block len %d, spilled %v: compressed replay diverges from access-by-access", bl, c.Spilled())
				}
			}
		})
	}
}
