package workload

import (
	"math"
	"reflect"
	"testing"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
	"searchmem/internal/platform"
	"searchmem/internal/trace"
)

// TestMeasureMultiMatchesMeasure pins that sharing a replay perturbs no
// hierarchy: MeasureMulti's single-pass sweep must reproduce single-config
// runs exactly — every float, every counter, and for observed configs the
// whole (access, level) stream — across capacity, partitioning, L4,
// split-L2, predictor-shape (cores x SMT), AccessObserver and
// Prefetchers variation. Both run against one Replayer so they replay the
// identical recording.
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
	smt := base // same threads on one SMT-2 core: another predictor shape
	smt.Cores, smt.SMTWays = 1, 2
	mcs = append(mcs, smt)
	// Two configs the shared loop must deliver to per access, each
	// digesting the (access, level) stream it observes.
	digests := make([]streamDigest, 2)
	observed := base
	observed.L3Size = 1 << 18
	observed.AccessObserver = digests[0].add
	mcs = append(mcs, observed)
	prefetched := base
	prefetched.Prefetchers = func() []cpu.Prefetcher { return []cpu.Prefetcher{cpu.NewStream(64, 2)} }
	prefetched.AccessObserver = digests[1].add
	mcs = append(mcs, prefetched)

	refs := make([]Metrics, len(mcs))
	for i, mc := range mcs {
		refs[i] = Measure(r, mc)
	}
	single := [2]streamDigest{digests[0], digests[1]}
	digests[0], digests[1] = streamDigest{}, streamDigest{}
	got := MeasureMulti(r, mcs)
	shared := [2]streamDigest{digests[0], digests[1]}
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
	for i, want := range single {
		if want.n == 0 || want.n != refs[0].Run.Accesses {
			t.Errorf("observer %d saw %d accesses alone, want the measured run's %d", i, want.n, refs[0].Run.Accesses)
		}
		if shared[i] != want {
			t.Errorf("observer %d: (access, level) stream in a shared run %+v != alone %+v", i, shared[i], want)
		}
	}
	if n := r.branchPasses.Load(); n != 2 {
		t.Errorf("%d predictor passes for 2 distinct shapes, want 2", n)
	}
}

// streamDigest is an order-sensitive hash of an observed (access, level)
// stream.
type streamDigest struct {
	n int64
	h uint64
}

func (d *streamDigest) add(a trace.Access, lvl cache.HitLevel) {
	d.n++
	for _, v := range [...]uint64{a.Addr, uint64(a.Size), uint64(a.Thread), uint64(a.Seg), uint64(a.Kind), uint64(lvl)} {
		d.h = (d.h ^ v) * 0x100000001b3
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
	mustPanic("BranchObserver in a shared run", []MeasureConfig{observed, base})
	for name, wf := range map[string]float64{"negative": -1, "NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1), "int64-overflowing": 1e30} {
		cold := base
		cold.WarmupFraction = wf
		mustPanic(name+" warmup", []MeasureConfig{cold})
	}
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
