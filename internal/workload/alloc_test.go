//go:build !race

// The allocation gate for the replay transport and the predictor pass behind
// the branch memo, by testing.AllocsPerRun. Oracles by kernel:
//
//	recordedRun.replay, Sinks.deliver    TestBatchedReplayZeroAlloc
//	branchCursor.nextChunk,
//	decodeBranches                       TestBatchedReplayZeroAlloc, TestObserveBranchesZeroAlloc
//	observeBranches                      TestObserveBranchesZeroAlloc
//	the capture path                     TestCaptureAllocLaw
//	a split measured run's handoff,
//	partitions and port merge            TestMeasureSplitZeroAllocPerWindow
//
// The warm-up call inside AllocsPerRun absorbs one-time growth (spill read
// buffer, decode windows). Excluded under -race because race instrumentation
// allocates.

package workload

import (
	"runtime"
	"testing"

	"searchmem/internal/platform"
	"searchmem/internal/trace"
)

// TestBatchedReplayZeroAlloc pins the replay transport. After the first Run
// records the stream, every further Run with the same key replays the
// memoized recording: cursor acquisition, batch splitting at branch
// positions and sink dispatch must not allocate. It also pins the Replayer's
// cursor-reuse cache, without which every replay would allocate a fresh
// decoding cursor.
func TestBatchedReplayZeroAlloc(t *testing.T) {
	cases := []struct {
		name  string
		store *StoreConfig
	}{
		{"flat", nil},
		{"compressed", &StoreConfig{Compress: true, blockLen: 128}},
		{"spilled", &StoreConfig{Compress: true, blockLen: 128, SpillDir: ""}}, // SpillDir set below
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

// TestObserveBranchesZeroAlloc pins the predictor pass behind the branch
// memo, which no replay runs: observeBranches over a log of one partial
// chunk, of several full chunks, and of several chunks with a partial last
// one. It builds its cursor per call, so its one allocation per call is that
// cursor's decode window; chunks and branches must add none.
func TestObserveBranchesZeroAlloc(t *testing.T) {
	shape := branchShape{cores: 2, smt: 2}
	for _, n := range []int{branchChunkLen / 3, 3 * branchChunkLen, 3*branchChunkLen + 7} {
		events := make([]branchEvent, n)
		for i := range events {
			events[i] = branchEvent{pos: i / 2, thread: uint8(i % 4), pc: uint64(i%509) * 4, taken: i%3 == 0}
		}
		log := encodeBranches(events)
		preds := shape.newPredictors()
		coreOf := shape.coreTable()
		const runs = 10
		if avg := testing.AllocsPerRun(runs, func() { observeBranches(preds, &coreOf, &log, nil) }); avg != 1 {
			t.Errorf("%d branches in %d chunks: %.1f allocs/op, want 1 (the cursor's decode window)", n, len(log.chunks), avg)
		}
		// AllocsPerRun makes one warm-up call before the measured ones.
		if got := preds[0].Predictions + preds[1].Predictions; got != (runs+1)*int64(n) {
			t.Fatalf("%d branches: the predictors observed %d over %d calls", n, got, runs+1)
		}
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

// TestMeasureSplitZeroAllocPerWindow pins the split measured run: the
// helper goroutine, the second partition and the merge scratch are one-time
// costs of a call, and every window after the first allocates nothing, so a
// recording 32 windows long costs what a one-window recording does.
func TestMeasureSplitZeroAllocPerWindow(t *testing.T) {
	rep := NewReplayer(&scriptedRunner{})
	allocs := func(budget int64) float64 {
		mc := MeasureConfig{
			Platform: platform.PLT1().ScaleCaches(16),
			Cores:    2, SMTWays: 1, Threads: 2,
			Budget: budget, Seed: 9,
		}
		var avg float64
		forceSplit(t, +1, func() {
			Measure(rep, mc) // records both keys and fills the memo
			split, _ := splitDelta(func() { avg = testing.AllocsPerRun(5, func() { Measure(rep, mc) }) })
			if split != 6 {
				t.Fatalf("%d of 6 measurements split", split)
			}
		})
		return avg
	}
	if short, long := allocs(trace.DefaultBatchSize), allocs(32*trace.DefaultBatchSize); long > short+4 {
		t.Errorf("split Measure allocations grow with the windows: %.0f for 1 window, %.0f for 32", short, long)
	}
}

// bulkRunner emits accesses and a branch after every second one without
// allocating, so what a Record of it allocates is the capture path's own.
type bulkRunner struct{}

func (bulkRunner) Name() string        { return "bulk" }
func (bulkRunner) MemOverlap() float64 { return 0 }
func (bulkRunner) Run(threads int, budget int64, seed uint64, sk Sinks) Stats {
	for i := int64(0); i < budget; i++ {
		sk.Access(trace.Access{Addr: seed<<40 + uint64(i)*64, Size: 8, Seg: trace.Heap, Kind: trace.Read, Thread: uint8(i % int64(threads))})
		if i%2 == 1 {
			sk.Branch(uint8(i%int64(threads)), uint64(i)*4, i%4 == 1)
		}
	}
	return Stats{Instructions: budget * 3, Accesses: budget, Branches: budget / 2}
}

// TestCaptureAllocLaw is the allocation law of the capture path: recording
// writes every event once, so the bytes a Record allocates are the bytes it
// keeps in memory — the accesses as stored plus the branch log as encoded,
// within 10 %, plus one open chunk of each — under the flat, compressed and
// spilled stores. A store, branch arena, block buffer or open branch chunk
// regrown by append copies itself several times over and fails this by a
// wide margin.
func TestCaptureAllocLaw(t *testing.T) {
	const accesses = 1 << 20
	for name, store := range storeCases(t) {
		t.Run(name, func(t *testing.T) {
			store.blockLen = 0 // the deployed geometry
			rep := NewReplayer(bulkRunner{})
			rep.SetStore(store)
			defer rep.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep.Record(4, accesses, 3)
			runtime.ReadMemStats(&after)

			// bulkRunner's branch deltas all fit one byte: 3 B/branch but for
			// the absolute anchor and PCs that restart each chunk.
			st := rep.StoreStats()
			if st.Accesses != accesses || st.Branches != accesses/2 || st.BranchBytes < 3*st.Branches || st.BranchBytes > 4*st.Branches {
				t.Fatalf("StoreStats = %+v", st)
			}
			resident := st.StoredBytes - st.SpilledBytes + st.BranchBytes
			// One open chunk each: a flat chunk or the in-memory block chunk
			// (the larger), a branch arena, and the branch writer's open-chunk
			// buffer at its widest.
			const chunks = 1<<20 + branchArenaLen + branchChunkLen*maxBranchRecordLen
			limit := resident + resident/10 + chunks
			if got := int64(after.TotalAlloc - before.TotalAlloc); got > limit {
				t.Errorf("recording allocated %d B to keep %d B resident (limit %d): an event buffer is being re-copied", got, resident, limit)
			}
		})
	}
}
