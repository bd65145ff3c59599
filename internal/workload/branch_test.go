package workload

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"searchmem/internal/cache"
	"searchmem/internal/platform"
	"searchmem/internal/trace"
)

// plainRunner replays a Replayer's recordings one access at a time but is
// not a *Replayer, so Measure and MeasureMulti see a raw runner and take the
// live Branch sink.
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

// TestBranchMemoMatchesLive requires the memoized branch counts to be the
// live ones: Measure on a Replayer equals Measure with a no-op BranchObserver
// (which forces the live sink on the same Replayer) and equals Measure on the
// same recordings behind a raw runner, across predictor shapes, warm-up modes
// and recording transports.
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
						observed := mc
						observed.BranchObserver = func(uint8, bool) {}
						if live := Measure(rep, observed); !reflect.DeepEqual(live, memo) {
							t.Errorf("cores %d smt %d warm-up %v: live sink on the Replayer diverges from the memo\n got: %+v\nwant: %+v",
								cores, smt, warmup, memo, live)
						}
						if raw := Measure(plainRunner{rep}, mc); !reflect.DeepEqual(raw, memo) {
							t.Errorf("cores %d smt %d warm-up %v: raw runner diverges from the memo\n got: %+v\nwant: %+v",
								cores, smt, warmup, memo, raw)
						}
						if got := rep.branchPasses.Load(); got != passes {
							t.Fatalf("live measurements ran the memo: %d passes, want %d", got, passes)
						}
					}
				}
			}
		})
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
// branches — what every memoized measurement is, and the one that skips the
// branch log and hands out the store's windows whole — is the replay with a
// no-op Branch sink: the same access sequence, exactly the recorded one, in
// batches of at most trace.DefaultBatchSize (block length 100000 makes the
// store's window longer than that), and the same Measure Metrics field for
// field, with and without an AccessObserver, which must then also see the
// same (access, level) sequence.
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

			type seen struct {
				a   trace.Access
				lvl cache.HitLevel
			}
			for _, observe := range []bool{false, true} {
				var nilSeen, liveSeen []seen
				mc := MeasureConfig{
					Platform: platform.PLT1().ScaleCaches(16),
					Cores:    threads, SMTWays: 1, Threads: threads,
					Budget: budget, Seed: seed,
				}
				live := mc
				live.BranchObserver = func(uint8, bool) {} // forces the Branch sink
				if observe {
					mc.AccessObserver = func(a trace.Access, lvl cache.HitLevel) { nilSeen = append(nilSeen, seen{a, lvl}) }
					live.AccessObserver = func(a trace.Access, lvl cache.HitLevel) { liveSeen = append(liveSeen, seen{a, lvl}) }
				}
				got, want := Measure(rep, mc), Measure(rep, live)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("observer=%v: Metrics differ between a nil and a no-op Branch sink\n nil: %+v\nlive: %+v", observe, got, want)
				}
				if observe && (len(nilSeen) != len(recorded) || !reflect.DeepEqual(nilSeen, liveSeen)) {
					t.Errorf("AccessObserver saw %d accesses without a Branch sink, %d with; recording holds %d", len(nilSeen), len(liveSeen), len(recorded))
				}
			}
		})
	}
}
