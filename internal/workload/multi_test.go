package workload

import (
	"reflect"
	"testing"

	"searchmem/internal/platform"
	"searchmem/internal/trace"
)

// TestMeasureMultiMatchesMeasure requires MeasureMulti's single-pass sweep
// to reproduce per-config Measure results exactly — every float, every
// counter — across capacity, partitioning, L4, split-L2 and predictor-shape
// (bits, cores x SMT) variation. Both run against one Replayer so they
// replay the identical recording.
func TestMeasureMultiMatchesMeasure(t *testing.T) {
	r := NewReplayer(tinyLeaf().Build())
	base := MeasureConfig{
		Platform: platform.PLT1().ScaleCaches(16),
		Cores:    2, SMTWays: 1, Threads: 2,
		Budget: 300_000,
		Seed:   3,
	}
	var mcs []MeasureConfig
	for i := 0; i < 3; i++ {
		mc := base
		mc.L3Size = int64(1+i) << 18
		mcs = append(mcs, mc)
	}
	ways := base
	ways.L3Ways = 4
	mcs = append(mcs, ways)
	l4 := base
	l4.L4Size = 1 << 20
	mcs = append(mcs, l4)
	split := base
	split.SplitL2 = true
	mcs = append(mcs, split)
	pred := base
	pred.PredictorBits = 12
	mcs = append(mcs, pred)
	smt := base // same threads on one SMT-2 core: another predictor shape
	smt.Cores, smt.SMTWays = 1, 2
	mcs = append(mcs, smt)

	refs := make([]Metrics, len(mcs))
	for i, mc := range mcs {
		refs[i] = Measure(r, mc)
	}
	got := MeasureMulti(r, mcs)
	if len(got) != len(refs) {
		t.Fatalf("MeasureMulti returned %d metrics, want %d", len(got), len(refs))
	}
	// A raw runner has no recording to memoize branch outcomes on, so the
	// same sweep through plainRunner runs each distinct shape's predictors
	// live; it must agree too.
	live := MeasureMulti(plainRunner{r}, mcs)
	for i := range refs {
		if !reflect.DeepEqual(got[i], refs[i]) {
			t.Errorf("config %d: MeasureMulti diverges from Measure\n got: %+v\nwant: %+v", i, got[i], refs[i])
		}
		if !reflect.DeepEqual(live[i], refs[i]) {
			t.Errorf("config %d: MeasureMulti on a raw runner diverges from Measure\n got: %+v\nwant: %+v", i, live[i], refs[i])
		}
	}
	if n := r.branchPasses.Load(); n != 3 {
		t.Errorf("%d predictor passes for 3 distinct shapes, want 3", n)
	}
}

// TestMeasureMultiValidation checks the shared-run preconditions panic.
func TestMeasureMultiValidation(t *testing.T) {
	r := NewReplayer(tinyLeaf().Build())
	base := MeasureConfig{
		Platform: platform.PLT1().ScaleCaches(16),
		Cores:    1, SMTWays: 1, Threads: 1,
		Budget: 100_000, Seed: 4,
	}
	mustPanic := func(name string, mcs []MeasureConfig) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		MeasureMulti(r, mcs)
	}
	diffSeed := base
	diffSeed.Seed = 5
	mustPanic("mixed seeds", []MeasureConfig{base, diffSeed})
	diffBudget := base
	diffBudget.Budget = 200_000
	mustPanic("mixed budgets", []MeasureConfig{base, diffBudget})
	observed := base
	observed.BranchObserver = func(uint8, bool) {}
	mustPanic("observer attached", []MeasureConfig{observed})
	if got := MeasureMulti(r, nil); got != nil {
		t.Errorf("empty config list: got %v, want nil", got)
	}
}

// TestReplayBatchedInterleaving replays one recording through the scalar
// and the batched sinks and requires the merged event sequence — accesses
// and branches in delivery order — to be identical. This pins the batched
// transport's contract: windows split exactly at branch anchors.
func TestReplayBatchedInterleaving(t *testing.T) {
	r := NewReplayer(tinyLeaf().Build())
	type ev struct {
		branch bool
		a      trace.Access
		thread uint8
		pc     uint64
		taken  bool
	}
	var scalar, batched []ev
	st1 := r.Run(1, 100_000, 9, Sinks{
		Access: func(a trace.Access) { scalar = append(scalar, ev{a: a}) },
		Branch: func(th uint8, pc uint64, taken bool) {
			scalar = append(scalar, ev{branch: true, thread: th, pc: pc, taken: taken})
		},
	})
	batches := 0
	st2 := r.Run(1, 100_000, 9, Sinks{
		AccessBatch: func(b []trace.Access) {
			batches++
			for _, a := range b {
				batched = append(batched, ev{a: a})
			}
		},
		// Access must be ignored when AccessBatch is set: make any scalar
		// delivery fail the equivalence below by duplicating events.
		Access: func(a trace.Access) { batched = append(batched, ev{a: a}) },
		Branch: func(th uint8, pc uint64, taken bool) {
			batched = append(batched, ev{branch: true, thread: th, pc: pc, taken: taken})
		},
	})
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("replay stats diverge: %+v vs %+v", st1, st2)
	}
	if len(scalar) == 0 || batches == 0 {
		t.Fatal("degenerate run: no events or no batches delivered")
	}
	if !reflect.DeepEqual(scalar, batched) {
		t.Fatalf("batched replay reorders events relative to scalar replay (%d vs %d events)", len(batched), len(scalar))
	}
}
