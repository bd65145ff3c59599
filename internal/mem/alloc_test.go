//go:build !race

// The allocation gate for the tier-access kernels (DESIGN.md §12):
// TestMemReadWriteZeroAlloc pins System.MemRead and System.MemWrite with
// testing.AllocsPerRun. The page table grows only on first touch of a page,
// so a warm-up pass over the batch (AllocsPerRun performs one before
// measuring, and we add an explicit one) absorbs all table growth; the
// steady-state replay — including epoch rebalances and FR-FCFS scheduling —
// must not allocate. Excluded under -race because race instrumentation
// inserts allocations of its own.

package mem

import (
	"testing"

	"searchmem/internal/trace"
)

// allocTrace builds a deterministic access mix (LCG; no global rand) that
// exercises both tiers, all segments, and reads and writes.
func allocTrace(seed uint64, n int) []trace.Access {
	accs := make([]trace.Access, n)
	x := seed
	for i := range accs {
		x = x*6364136223846793005 + 1442695040888963407
		kind := trace.Read
		if x%4 == 0 {
			kind = trace.Write
		}
		accs[i] = trace.Access{
			Addr:   (x >> 17) % (1 << 24), // 4096 distinct pages
			Size:   64,
			Seg:    trace.Segment(x % 4),
			Kind:   kind,
			Thread: uint8(x % 8),
		}
	}
	return accs
}

func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(10, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, avg)
	}
}

// TestMemReadWriteZeroAlloc pins MemRead/MemWrite for a near-only system
// (row-buffer model alone) and for each placement policy with a tight near
// tier and short epochs, so rebalances run inside the measured window.
func TestMemReadWriteZeroAlloc(t *testing.T) {
	batch := allocTrace(7, 8192)
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"near-only", Config{}},
		{"static", Config{Far: &FarConfig{NearPages: 512, Policy: PolicyStatic, EpochLen: 1024}}},
		{"lru-epoch", Config{Far: &FarConfig{NearPages: 512, Policy: PolicyLRUEpoch, EpochLen: 1024}}},
		{"freq", Config{Far: &FarConfig{NearPages: 512, Policy: PolicyFreqThreshold, EpochLen: 1024}}},
	}
	for _, c := range cfgs {
		s := NewSystem(c.cfg)
		replay(s, batch) // touch every page: table growth happens here
		requireZeroAllocs(t, c.name, func() {
			replay(s, batch)
		})
	}
}
