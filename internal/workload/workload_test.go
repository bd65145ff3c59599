package workload

import (
	"reflect"
	"testing"

	"searchmem/internal/cache"
	"searchmem/internal/platform"
	"searchmem/internal/search"
	"searchmem/internal/trace"
)

// tinyLeaf is a fast-building leaf profile for unit tests.
func tinyLeaf() SearchWorkload { return S1Leaf(32) }

func TestInterleaverRoundRobin(t *testing.T) {
	mk := func(th uint8, n int) []trace.Access {
		out := make([]trace.Access, n)
		for i := range out {
			out[i] = trace.Access{Thread: th, Addr: uint64(i)}
		}
		return out
	}
	served := map[int]int{0: 0, 1: 0}
	var order []uint8
	iv := newInterleaver(2, 2, func(a trace.Access) { order = append(order, a.Thread) },
		func(th int, drained []trace.Access) ([]trace.Access, bool) {
			// A refill gets the thread's own drained buffer back, emptied.
			if len(drained) != 0 || (served[th] > 0 && (cap(drained) < 3 || drained[:1][0].Thread != uint8(th))) {
				t.Fatalf("thread %d refill %d handed len %d cap %d", th, served[th], len(drained), cap(drained))
			}
			if served[th] >= 2 {
				return nil, false
			}
			served[th]++
			return append(drained, mk(uint8(th), 3)...), true
		})
	n := iv.run()
	if n != 12 {
		t.Fatalf("emitted %d accesses, want 12", n)
	}
	// Bursts of 2 must alternate threads until drained.
	if order[0] != order[1] || order[0] == order[2] {
		t.Fatalf("burst pattern wrong: %v", order[:4])
	}
	c0, c1 := 0, 0
	for _, th := range order {
		if th == 0 {
			c0++
		} else {
			c1++
		}
	}
	if c0 != 6 || c1 != 6 {
		t.Fatalf("thread shares %d/%d", c0, c1)
	}
}

func TestInterleaverEmptyThread(t *testing.T) {
	iv := newInterleaver(2, 4, nil, func(int, []trace.Access) ([]trace.Access, bool) {
		return nil, false
	})
	if n := iv.run(); n != 0 {
		t.Fatalf("emitted %d from empty threads", n)
	}
}

func TestSearchRunnerBasics(t *testing.T) {
	r := tinyLeaf().Build()
	var accesses, branches int64
	st := r.Run(2, 300_000, 1, Sinks{
		Access: func(trace.Access) { accesses++ },
		Branch: func(uint8, uint64, bool) { branches++ },
	})
	if st.Instructions < 300_000 {
		t.Fatalf("instructions %d below budget", st.Instructions)
	}
	if st.Queries == 0 || st.PostingsDecoded == 0 {
		t.Fatalf("no work done: %+v", st)
	}
	if accesses != st.Accesses || accesses == 0 {
		t.Fatalf("access accounting: sink %d vs stats %d", accesses, st.Accesses)
	}
	if branches == 0 || st.Branches == 0 {
		t.Fatal("no branches emitted")
	}
}

func TestSearchRunnerThreadSpread(t *testing.T) {
	r := tinyLeaf().Build()
	seen := map[uint8]int{}
	r.Run(4, 400_000, 2, Sinks{Access: func(a trace.Access) { seen[a.Thread]++ }})
	if len(seen) != 4 {
		t.Fatalf("accesses from %d threads, want 4", len(seen))
	}
	for th, n := range seen {
		if n < 1000 {
			t.Fatalf("thread %d contributed only %d accesses", th, n)
		}
	}
}

func TestSearchRunnerSegmentsPresent(t *testing.T) {
	r := tinyLeaf().Build()
	var bySeg [trace.NumSegments]int64
	r.Run(1, 300_000, 3, Sinks{Access: func(a trace.Access) { bySeg[a.Seg]++ }})
	for seg := trace.Segment(0); seg < trace.NumSegments; seg++ {
		if bySeg[seg] == 0 {
			t.Fatalf("no %v accesses in trace", seg)
		}
	}
	// Code fetches should be a large share (one per basic block).
	total := bySeg[0] + bySeg[1] + bySeg[2] + bySeg[3]
	if float64(bySeg[trace.Code])/float64(total) < 0.2 {
		t.Fatalf("code share %.2f too small", float64(bySeg[trace.Code])/float64(total))
	}
}

func TestSearchRunnerDeterministicWithSameSeed(t *testing.T) {
	run := func() int64 {
		r := tinyLeaf().Build()
		var sum int64
		r.Run(2, 200_000, 7, Sinks{Access: func(a trace.Access) { sum += int64(a.Addr & 0xffff) }})
		return sum
	}
	if run() != run() {
		t.Fatal("same seed produced different traces")
	}
}

// TestBuildFromSharedIndex: runners built from one image — one of them
// after another has already run and mutated its engine — emit exactly the
// stream of a runner from Build(), and an image of another corpus is an
// error.
func TestBuildFromSharedIndex(t *testing.T) {
	record := func(r *SearchRunner) []trace.Access {
		var out []trace.Access
		r.Run(2, 150_000, 5, Sinks{Access: func(a trace.Access) { out = append(out, a) }})
		return out
	}
	want := record(tinyLeaf().Build())

	idx, err := search.BuildIndex(tinyLeaf().Engine)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r, err := tinyLeaf().BuildFrom(idx)
		if err != nil {
			t.Fatal(err)
		}
		if got := record(r); len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("runner %d from the shared index: %d accesses differ from Build()'s %d", i, len(got), len(want))
		}
	}

	wide := tinyLeaf()
	wide.Engine.MaxSessions = 40 // not part of the image
	if _, err := wide.BuildFrom(idx); err != nil {
		t.Errorf("profile differing only in MaxSessions rejected: %v", err)
	}
	if _, err := S2Leaf(32).BuildFrom(idx); err == nil {
		t.Error("S2-leaf built from an S1-leaf index")
	}
	bad := tinyLeaf()
	bad.MinTerms = 0
	if _, err := bad.BuildFrom(idx); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestSearchRunnerPanics(t *testing.T) {
	r := tinyLeaf().Build()
	for i, f := range []func(){
		func() { r.Run(0, 1000, 1, Sinks{}) },
		func() { r.Run(100, 1000, 1, Sinks{}) }, // exceeds MaxSessions
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSyntheticRunnerBasics(t *testing.T) {
	w := CloudSuiteWebSearch()
	r := w.Build()
	var bySeg [trace.NumSegments]int64
	st := r.Run(2, 200_000, 1, Sinks{Access: func(a trace.Access) { bySeg[a.Seg]++ }})
	if st.Instructions < 200_000 {
		t.Fatalf("instructions %d", st.Instructions)
	}
	if bySeg[trace.Code] == 0 || bySeg[trace.Heap] == 0 || bySeg[trace.Stack] == 0 {
		t.Fatalf("segment mix: %v", bySeg)
	}
	if r.Name() != "cloudsuite-websearch" {
		t.Fatal("name")
	}
	if r.MemOverlap() <= 0 {
		t.Fatal("mem overlap unset")
	}
}

func TestSyntheticValidate(t *testing.T) {
	bad := []func(SyntheticWorkload) SyntheticWorkload{
		func(w SyntheticWorkload) SyntheticWorkload { w.HeapBytes = 0; return w },
		func(w SyntheticWorkload) SyntheticWorkload { w.HeapSkew = 0; return w },
		func(w SyntheticWorkload) SyntheticWorkload { w.LoadsPerKI, w.StoresPerKI = 0, 0; return w },
		func(w SyntheticWorkload) SyntheticWorkload { w.MemOverlapFactor = 2; return w },
	}
	for i, mut := range bad {
		if err := mut(SPECPerlbench()).Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	for _, w := range []SyntheticWorkload{SPECPerlbench(), SPECMcf(), SPECGobmk(), SPECOmnetpp(), CloudSuiteWebSearch()} {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.WLName, err)
		}
	}
}

func TestSearchWorkloadValidate(t *testing.T) {
	bad := []func(SearchWorkload) SearchWorkload{
		func(w SearchWorkload) SearchWorkload { w.MinTerms = 0; return w },
		func(w SearchWorkload) SearchWorkload { w.MaxTerms = 0; return w },
		func(w SearchWorkload) SearchWorkload { w.QueryTermSkew = 0; return w },
		func(w SearchWorkload) SearchWorkload { w.StackBytes = 0; return w },
	}
	for i, mut := range bad {
		if err := mut(tinyLeaf()).Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	for _, w := range []SearchWorkload{
		S1Leaf(32), S2Leaf(32), S3Leaf(32), S1Root(32), S2Root(32), S3Root(32), S1LeafSweep(32),
	} {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.WLName, err)
		}
	}
}

func TestMeasureSmoke(t *testing.T) {
	r := tinyLeaf().Build()
	m := Measure(r, MeasureConfig{
		Platform: platform.PLT1().ScaleCaches(16),
		Cores:    2, SMTWays: 1, Threads: 2,
		Budget: 400_000,
		Seed:   1,
	})
	if m.IPC <= 0 || m.IPC > 4 {
		t.Fatalf("IPC %v out of range", m.IPC)
	}
	if m.Instructions < 400_000 {
		t.Fatalf("instructions %d", m.Instructions)
	}
	if m.L3HitRate <= 0 || m.L3HitRate > 1 {
		t.Fatalf("L3 hit rate %v", m.L3HitRate)
	}
	if m.BranchMPKI <= 0 {
		t.Fatal("no branch mispredictions measured")
	}
	sum := m.Breakdown.Sum()
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("breakdown sums to %v", sum)
	}
	if m.AMATNS < platform.PLT1().L3LatencyNS || m.AMATNS > platform.PLT1().MemLatencyNS {
		t.Fatalf("AMAT %v outside [tL3, tMEM]", m.AMATNS)
	}
}

func TestMeasureWithL4(t *testing.T) {
	r := tinyLeaf().Build()
	base := MeasureConfig{
		Platform: platform.PLT1().ScaleCaches(64),
		Cores:    1, SMTWays: 1, Threads: 1,
		Budget: 400_000,
		Seed:   2,
	}
	noL4 := Measure(r, base)
	withL4 := base
	withL4.L4Size = 4 << 20
	r2 := tinyLeaf().Build()
	l4 := Measure(r2, withL4)
	if l4.L4HitRate <= 0 {
		t.Fatal("L4 never hit")
	}
	if l4.AMATNS >= noL4.AMATNS {
		t.Fatalf("L4 did not reduce AMAT: %v vs %v", l4.AMATNS, noL4.AMATNS)
	}
	if l4.IPC <= noL4.IPC {
		t.Fatalf("L4 did not raise IPC: %v vs %v", l4.IPC, noL4.IPC)
	}
}

func TestMeasureCATReducesHitRate(t *testing.T) {
	full := Measure(tinyLeaf().Build(), MeasureConfig{
		Platform: platform.PLT1().ScaleCaches(16),
		Cores:    1, SMTWays: 1, Threads: 1,
		Budget: 400_000, Seed: 3,
	})
	partitioned := Measure(tinyLeaf().Build(), MeasureConfig{
		Platform: platform.PLT1().ScaleCaches(16),
		Cores:    1, SMTWays: 1, Threads: 1,
		L3Ways: 2,
		Budget: 400_000, Seed: 3,
	})
	if partitioned.L3HitRate >= full.L3HitRate {
		t.Fatalf("CAT partitioning did not reduce hit rate: %v vs %v",
			partitioned.L3HitRate, full.L3HitRate)
	}
	if partitioned.IPC >= full.IPC {
		t.Fatalf("CAT partitioning did not reduce IPC: %v vs %v", partitioned.IPC, full.IPC)
	}
}

// TestMeasurePolicyAndPredictorPlumbing checks the per-level policy knobs
// reach the hierarchy (stochastic seeds derived deterministically from the
// run seed) and the level predictor's counters surface in Metrics.Pred —
// with repeat runs byte-identical.
func TestMeasurePolicyAndPredictorPlumbing(t *testing.T) {
	cfg := MeasureConfig{
		Platform: platform.PLT1().ScaleCaches(16),
		Cores:    1, SMTWays: 1, Threads: 1,
		Budget: 400_000, Seed: 4,
		L2Policy: cache.SRRIP, L3Policy: cache.DRRIP,
		DeadBlock: true,
		Predictor: &cache.PredictorConfig{TableBits: 12, ConfThreshold: 2},
	}
	run := func() Metrics { return Measure(tinyLeaf().Build(), cfg) }
	m := run()
	if m.Pred.Lookups == 0 {
		t.Fatal("predictor saw no lookups")
	}
	if m.Pred.ProbesBaseline == 0 || m.Pred.ProbesPerformed > m.Pred.ProbesBaseline {
		t.Fatalf("probe accounting inconsistent: %+v", m.Pred)
	}
	if m.IPC <= 0 || m.L3HitRate <= 0 {
		t.Fatalf("degenerate metrics: IPC=%v L3=%v", m.IPC, m.L3HitRate)
	}
	if !reflect.DeepEqual(m, run()) {
		t.Fatal("repeat run with stochastic policies + predictor diverged")
	}
	// Predictor-less baseline reports zero predictor counters.
	base := cfg
	base.Predictor = nil
	if Measure(tinyLeaf().Build(), base).Pred != (cache.PredictorStats{}) {
		t.Fatal("predictor-less run reported predictor counters")
	}
}

func TestPaperUnitsRoundTrip(t *testing.T) {
	if PaperUnits(SimUnits(1<<30)) != 1<<30 {
		t.Fatal("unit conversion round trip failed")
	}
	if SimUnits(1<<30) != (1<<30)/SweepScale {
		t.Fatal("sim units wrong")
	}
}
