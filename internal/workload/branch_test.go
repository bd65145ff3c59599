package workload

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
	"searchmem/internal/platform"
	"searchmem/internal/trace"
)

// plainRunner replays a Replayer's recordings one access at a time but is
// not a *Replayer, so Measure and MeasureMulti see a raw runner and record
// it first.
type plainRunner struct{ rep *Replayer }

func (p plainRunner) Name() string        { return p.rep.Name() }
func (p plainRunner) MemOverlap() float64 { return p.rep.MemOverlap() }
func (p plainRunner) Run(threads int, budget int64, seed uint64, s Sinks) Stats {
	return p.rep.Run(threads, budget, seed, Sinks{Access: s.Access, Branch: s.Branch})
}

// storeCases is the three recording transports, for tests that must hold on
// each.
func storeCases(t *testing.T) map[string]StoreConfig {
	return map[string]StoreConfig{
		"flat":       {},
		"compressed": {Compress: true, blockLen: 128},
		"spilled":    {Compress: true, blockLen: 128, SpillDir: t.TempDir()},
	}
}

// branchOutcome is one measured-phase branch as a BranchObserver sees it.
type branchOutcome struct {
	thread     uint8
	mispredict bool
}

// refBranches is the reference for mc's branch outcome, written from the
// model's definition rather than from the memo: fresh per-core gshare
// predictors (SMT threads share their core's) fed from rep.Run's Branch sink
// over the warm-up run, their counters zeroed, then over the measured run.
// It returns the per-core measured-phase counts and the measured-phase
// (thread, mispredict) sequence.
func refBranches(rep *Replayer, mc MeasureConfig) ([]branchCounts, []branchOutcome) {
	mc.normalize()
	preds := make([]cpu.PredictorStats, mc.Cores)
	for i := range preds {
		preds[i].P = cpu.NewGshare(14)
	}
	var seq []branchOutcome
	measuring := false
	sinks := Sinks{Branch: func(t uint8, pc uint64, taken bool) {
		mis := preds[int(t)/mc.SMTWays%mc.Cores].Observe(cpu.Branch{PC: pc, Taken: taken})
		if measuring {
			seq = append(seq, branchOutcome{t, mis})
		}
	}}
	if warm := int64(float64(mc.Budget) * mc.WarmupFraction); warm > 0 {
		rep.Run(mc.Threads, warm, mc.Seed^0xbeef, sinks)
	}
	for i := range preds {
		preds[i].Predictions, preds[i].Mispredicts = 0, 0
	}
	measuring = true
	rep.Run(mc.Threads, mc.Budget, mc.Seed, sinks)
	counts := make([]branchCounts, len(preds))
	for i, p := range preds {
		counts[i] = branchCounts{Predictions: p.Predictions, Mispredicts: p.Mispredicts}
	}
	return counts, seq
}

// TestBranchMemoMatchesLive holds both ways a measurement reads its branch
// outcome off the recording to refBranches, across predictor shapes,
// warm-up modes and recording transports: the memo equals the reference in
// per-core counts, and a BranchObserver's pass equals it in counts and in
// the exact (thread, mispredict) sequence, alone and in a MeasureMulti
// whose configurations observe with different shapes.
func TestBranchMemoMatchesLive(t *testing.T) {
	const budget = 40_000
	for name, store := range storeCases(t) {
		t.Run(name, func(t *testing.T) {
			rep := NewReplayer(SPECPerlbench().Build())
			rep.SetStore(store)
			var passes int64
			for _, cores := range []int{1, 4} {
				for _, smt := range []int{1, 2} {
					// Half an instruction of warm-up truncates to none: no warm-up run.
					for _, warmup := range []float64{0, 0.5 / budget} {
						mc := MeasureConfig{
							Platform: platform.PLT1().ScaleCaches(16),
							Cores:    cores, SMTWays: smt, Threads: cores * smt,
							Budget: budget, Seed: 5,
							WarmupFraction: warmup,
						}
						memo := Measure(rep, mc)
						passes++
						if got := rep.branchPasses.Load(); got != passes {
							t.Fatalf("%d predictor passes after %d distinct keys", got, passes)
						}
						if memo.BranchMPKI == 0 {
							t.Fatal("degenerate stream: no mispredicted branches")
						}
						wantCounts, wantSeq := refBranches(rep, mc)
						norm := mc
						norm.normalize()
						warm, main := measureKeys(&norm)
						if got := rep.branchCounts(branchKey{warm: warm, main: main, shape: shapeOf(&norm)}); !reflect.DeepEqual(got, wantCounts) {
							t.Errorf("cores %d smt %d warm-up %v: memo counts %v, reference %v", cores, smt, warmup, got, wantCounts)
						}
						var seq []branchOutcome
						observed := mc
						observed.BranchObserver = func(t uint8, mis bool) { seq = append(seq, branchOutcome{t, mis}) }
						if got := Measure(rep, observed); !reflect.DeepEqual(got, memo) {
							t.Errorf("cores %d smt %d warm-up %v: the observer pass diverges from the memo\n got: %+v\nwant: %+v",
								cores, smt, warmup, got, memo)
						}
						if !reflect.DeepEqual(seq, wantSeq) {
							t.Errorf("cores %d smt %d warm-up %v: observer saw %d outcomes, reference %d, or another sequence",
								cores, smt, warmup, len(seq), len(wantSeq))
						}
						if got := rep.branchPasses.Load(); got != passes {
							t.Fatalf("observed measurements ran the memo: %d passes, want %d", got, passes)
						}
					}
				}
			}
			var seqs [2][]branchOutcome
			mcs := make([]MeasureConfig, 2)
			for i, shape := range [][2]int{{4, 1}, {2, 2}} {
				mcs[i] = MeasureConfig{
					Platform: platform.PLT1().ScaleCaches(16),
					Cores:    shape[0], SMTWays: shape[1], Threads: 4,
					Budget: budget, Seed: 6,
				}
				mcs[i].BranchObserver = func(t uint8, mis bool) { seqs[i] = append(seqs[i], branchOutcome{t, mis}) }
			}
			MeasureMulti(rep, mcs)
			for i := range mcs {
				if _, want := refBranches(rep, mcs[i]); len(want) == 0 || !reflect.DeepEqual(seqs[i], want) {
					t.Errorf("shared run, config %d: observer saw %d outcomes, reference %d, or another sequence", i, len(seqs[i]), len(want))
				}
			}
		})
	}
}

// TestMeasureRawRunnerReplays: Measure on a raw runner equals Measure on
// the same runner behind an explicit Replayer, and runs the inner runner
// exactly twice per call, warm-up budget first, so a stateful runner
// measured twice evolves as it does behind a fresh Replayer per call.
func TestMeasureRawRunnerReplays(t *testing.T) {
	mc := MeasureConfig{
		Platform: platform.PLT1().ScaleCaches(16),
		Cores:    2, SMTWays: 1, Threads: 2,
		Budget: 400, Seed: 3,
	}
	raw, wrapped := &scriptedRunner{}, &scriptedRunner{}
	for call := 0; call < 2; call++ {
		got, want := Measure(raw, mc), Measure(NewReplayer(wrapped), mc)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("scripted, call %d: raw runner\n got: %+v\nwant: %+v", call, got, want)
		}
	}
	if want := []int64{100, 400, 100, 400}; !reflect.DeepEqual(raw.budgets, want) || !reflect.DeepEqual(wrapped.budgets, want) {
		t.Errorf("inner budgets: raw %v, behind a Replayer %v, want %v (warm-up first, once each per call)", raw.budgets, wrapped.budgets, want)
	}

	mc.Budget = 60_000
	got, want := Measure(SPECPerlbench().Build(), mc), Measure(NewReplayer(SPECPerlbench().Build()), mc)
	if !reflect.DeepEqual(got, want) || got.BranchMPKI == 0 || got.L1DMPKI == 0 {
		t.Errorf("perlbench: raw runner\n got: %+v\nwant: %+v", got, want)
	}
}

// TestBranchMemoOncePerKey hammers one Replayer from 8 goroutines with two
// predictor shapes through both Measure and MeasureMulti: each (recording
// pair, shape) runs its predictors exactly once, and the recordings — their
// number and, because the inner runner's state evolves, their warm-up-first
// order — are what a serial run on a fresh runner leaves, witnessed by equal
// Metrics. Meaningful under -race.
func TestBranchMemoOncePerKey(t *testing.T) {
	shapes := make([]MeasureConfig, 2)
	for i := range shapes {
		shapes[i] = MeasureConfig{
			Platform: platform.PLT1().ScaleCaches(16),
			Cores:    2 - i, SMTWays: 1 + i, Threads: 2,
			Budget: 100_000, Seed: 11,
		}
	}
	serial := NewReplayer(tinyLeaf().Build())
	want := []Metrics{Measure(serial, shapes[0]), Measure(serial, shapes[1])}

	rep := NewReplayer(tinyLeaf().Build())
	var wg sync.WaitGroup
	got := make([][]Metrics, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				got[g] = MeasureMulti(rep, shapes)
			} else {
				got[g] = []Metrics{Measure(rep, shapes[0]), Measure(rep, shapes[1])}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Errorf("goroutine %d diverges from the serial run", g)
		}
	}
	if n := rep.branchPasses.Load(); n != 2 {
		t.Errorf("%d predictor passes for 2 shapes over one recording pair, want 2", n)
	}
	if len(rep.runs) != len(serial.runs) || len(rep.runs) != 2 {
		t.Errorf("Recordings = %d (serial %d), want 2", len(rep.runs), len(serial.runs))
	}
}

// TestMemoRecordsWarmupFirst pins the order in which the memo itself asks for
// recordings when it is the first to need them.
func TestMemoRecordsWarmupFirst(t *testing.T) {
	inner := &scriptedRunner{}
	rep := NewReplayer(inner)
	mc := MeasureConfig{Cores: 1, SMTWays: 1, Threads: 1, Budget: 400, Seed: 3}
	mc.normalize()
	warm, main := measureKeys(&mc)
	rep.branchCounts(branchKey{warm: warm, main: main, shape: shapeOf(&mc)})
	if want := []int64{100, 400}; !reflect.DeepEqual(inner.budgets, want) {
		t.Fatalf("memo recorded budgets %v, want %v (warm-up first)", inner.budgets, want)
	}
}

// TestNilBranchSinkSameAccesses checks that a replay nobody listens to for
// branches — what every measured run is, and the one that skips the branch
// log and hands out the store's windows whole — is the replay with a no-op
// Branch sink: the same access sequence, exactly the recorded one, in
// batches of at most trace.DefaultBatchSize (block length 100000 makes the
// store's window longer than that). An AccessObserver on Measure sees that
// sequence too.
func TestNilBranchSinkSameAccesses(t *testing.T) {
	stores := storeCases(t)
	for _, blockLen := range []int{1, 7, 8192, 100_000} {
		stores[fmt.Sprintf("compressed-%d", blockLen)] = StoreConfig{Compress: true, blockLen: blockLen}
	}
	const threads, budget, seed = 2, 60_000, 7
	for name, store := range stores {
		t.Run(name, func(t *testing.T) {
			rep := NewReplayer(SPECPerlbench().Build())
			rep.SetStore(store)
			defer rep.Close()
			collect := func(branch func(uint8, uint64, bool)) []trace.Access {
				var out []trace.Access
				rep.Run(threads, budget, seed, Sinks{
					AccessBatch: func(b []trace.Access) {
						if len(b) == 0 || len(b) > trace.DefaultBatchSize {
							t.Fatalf("batch of %d accesses", len(b))
						}
						out = append(out, b...)
					},
					Branch: branch,
				})
				return out
			}
			var recorded []trace.Access
			rec, _ := rep.Trace(threads, budget, seed)
			cur := rec.Cursor()
			for b := cur.NextBatch(); len(b) > 0; b = cur.NextBatch() {
				recorded = append(recorded, b...)
			}
			if len(recorded) <= 2*trace.DefaultBatchSize {
				t.Fatalf("recording holds %d accesses, too few to exercise the batch cap", len(recorded))
			}
			if got := collect(nil); !reflect.DeepEqual(got, recorded) {
				t.Error("nil Branch sink: delivered accesses differ from the recording")
			}
			fired := 0
			if got := collect(func(uint8, uint64, bool) { fired++ }); !reflect.DeepEqual(got, recorded) {
				t.Error("with a Branch sink: delivered accesses differ from the recording")
			}
			if fired == 0 {
				t.Fatal("degenerate stream: no branches")
			}

			var seen []trace.Access
			Measure(rep, MeasureConfig{
				Platform: platform.PLT1().ScaleCaches(16),
				Cores:    threads, SMTWays: 1, Threads: threads,
				Budget: budget, Seed: seed,
				AccessObserver: func(a trace.Access, _ cache.HitLevel) { seen = append(seen, a) },
			})
			if !reflect.DeepEqual(seen, recorded) {
				t.Errorf("AccessObserver saw %d accesses, not the %d recorded ones", len(seen), len(recorded))
			}
		})
	}
}
