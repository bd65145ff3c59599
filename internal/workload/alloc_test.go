//go:build !race

// Allocation-regression oracle for the //lint:hot batched replay path. After
// the first Run records the stream, every further Run with the same key
// replays the memoized recording; the replay transport (cursor acquisition,
// batch splitting at branch positions, sink dispatch) must not allocate.
// This also pins the Replayer's cursor-reuse cache: without it every replay
// would allocate a fresh decoding cursor. The warm-up call inside
// AllocsPerRun absorbs one-time growth (spill read buffer, decode window).
// Excluded under -race because race instrumentation allocates.

package workload

import (
	"testing"

	"searchmem/internal/platform"
	"searchmem/internal/trace"
)

func TestBatchedReplayZeroAlloc(t *testing.T) {
	cases := []struct {
		name  string
		store *StoreConfig
	}{
		{"flat", nil},
		{"compressed", &StoreConfig{Compress: true, BlockLen: 128}},
		{"spilled", &StoreConfig{Compress: true, BlockLen: 128, SpillDir: ""}}, // SpillDir set below
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := NewReplayer(&scriptedRunner{})
			if tc.store != nil {
				cfg := *tc.store
				if tc.name == "spilled" {
					cfg.SpillDir = t.TempDir()
				}
				rep.SetStore(cfg)
			}
			// Sinks are built once outside the measured region: closure
			// environments allocate at creation, not at call.
			var accesses, branches int64
			sinks := Sinks{
				AccessBatch: func(b []trace.Access) { accesses += int64(len(b)) },
				Branch:      func(thread uint8, pc uint64, taken bool) { branches++ },
			}
			// First Run executes the inner runner and records (allocates
			// freely); it is outside the measured region.
			want := rep.Run(2, 600, 9, sinks)
			accesses, branches = 0, 0
			if avg := testing.AllocsPerRun(10, func() {
				accesses, branches = 0, 0
				st := rep.Run(2, 600, 9, sinks)
				if st != want {
					t.Fatalf("replayed stats differ: %+v vs %+v", st, want)
				}
			}); avg != 0 {
				t.Errorf("%s replay: %.1f allocs/op, want 0", tc.name, avg)
			}
			if accesses != want.Accesses || branches != want.Branches {
				t.Fatalf("replay delivered %d accesses / %d branches, want %d / %d",
					accesses, branches, want.Accesses, want.Branches)
			}
		})
	}
}

// TestMeasureReplaySteadyStateZeroAllocPerAccess pins the memoized Measure
// path: once a Replayer holds the recordings and the branch memo, a Measure
// allocates its hierarchy and result and nothing that scales with the trace —
// an 8x longer recording costs the same allocations.
func TestMeasureReplaySteadyStateZeroAllocPerAccess(t *testing.T) {
	rep := NewReplayer(&scriptedRunner{})
	allocs := func(budget int64) float64 {
		mc := MeasureConfig{
			Platform: platform.PLT1().ScaleCaches(16),
			Cores:    2, SMTWays: 1, Threads: 2,
			Budget: budget, Seed: 9,
		}
		Measure(rep, mc) // records both keys and fills the memo
		passes := rep.branchPasses.Load()
		avg := testing.AllocsPerRun(5, func() { Measure(rep, mc) })
		if rep.branchPasses.Load() != passes {
			t.Fatal("steady-state Measure re-ran the predictors")
		}
		return avg
	}
	// AllocsPerRun counts the whole process, so allow the runtime's own
	// background allocations a few; anything per access, per branch or per
	// sub-window would add thousands.
	if short, long := allocs(2_000), allocs(16_000); long > short+4 {
		t.Errorf("Measure allocations grow with the trace: %.0f for 2k accesses, %.0f for 16k", short, long)
	}
}
