package workload

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"searchmem/internal/cache"
	"searchmem/internal/mem"
	"searchmem/internal/platform"
	"searchmem/internal/trace"
)

// forceSplit runs f with the split gates replaced: force +1 splits every
// group whose configuration allows it, -1 none, 0 restores the gates.
func forceSplit(t *testing.T, force int, f func()) {
	t.Helper()
	old := splitOverride
	splitOverride = force
	defer func() { splitOverride = old }()
	f()
}

// splitDelta returns how many measured runs f made and how many of them
// split a group.
func splitDelta(f func()) (split, runs int64) {
	s0, r0 := SplitRuns()
	f()
	s1, r1 := SplitRuns()
	return s1 - s0, r1 - r0
}

// deepConfigs is a miss-heavy mixed call over one recording: two
// splittable uppers (a 256 KiB L3 with an L4 and a far memory tier, shared
// by an observer, and a split-L2 upper with a direct-mapped L4), and one
// upper a level predictor keeps whole.
func deepConfigs(plat platform.Platform, digest *streamDigest) []MeasureConfig {
	base := MeasureConfig{
		Platform: plat.ScaleCaches(16),
		Cores:    2, SMTWays: 1, Threads: 2,
		L3Size: 256 << 10,
		Budget: 200_000,
		Seed:   5,
	}
	far := &mem.Config{Far: &mem.FarConfig{NearPages: 64, Policy: mem.PolicyFreqThreshold, EpochLen: 512}}
	deep := base
	deep.L4Size, deep.Mem = 1<<20, far
	observed := deep
	observed.AccessObserver = digest.add
	split := base
	split.SplitL2, split.L4Size = true, 512<<10
	keyed := base
	keyed.L3Size, keyed.Predictor = 512<<10, &cache.PredictorConfig{TableBits: 10, ConfThreshold: 1}
	return []MeasureConfig{deep, observed, split, keyed}
}

// TestMeasureMultiPartitionedMatchesSerial is the split's end-to-end
// exactness: every Metrics field (Mem and per-level stats included), the
// observer's (access, level) stream and a recorded Stream are the same with
// every splittable group split as with none, on PLT1 and PLT2 shapes, in a
// call that mixes split and whole groups.
func TestMeasureMultiPartitionedMatchesSerial(t *testing.T) {
	r := NewReplayer(tinyLeaf().Build())
	for _, plat := range []platform.Platform{platform.PLT1(), platform.PLT2()} {
		var digests [2]streamDigest
		var got [2][]Metrics
		for i, force := range []int{-1, +1} {
			mcs := deepConfigs(plat, &digests[i])
			forceSplit(t, force, func() {
				split, runs := splitDelta(func() { got[i] = MeasureMulti(r, mcs) })
				if want := int64(max(force, 0)); runs != 1 || split != want {
					t.Fatalf("%s, force %+d: %d of %d runs split, want %d of 1", plat.Name, force, split, runs, want)
				}
			})
		}
		for j := range got[0] {
			if !reflect.DeepEqual(got[0][j], got[1][j]) {
				t.Errorf("%s config %d: split Metrics differ from serial\n got: %+v\nwant: %+v", plat.Name, j, got[1][j], got[0][j])
			}
		}
		if digests[0].n == 0 || digests[0] != digests[1] {
			t.Errorf("%s: observer stream split %+v, serial %+v", plat.Name, digests[1], digests[0])
		}
		if !cache.Partitionable(upperOf(hierarchyConfig(deepConfigs(plat, nil)[0]))) {
			t.Errorf("%s: the deep upper is not partitionable, so nothing above split", plat.Name)
		}
		var streams [2]*Stream
		for i, force := range []int{-1, +1} {
			forceSplit(t, force, func() { streams[i] = RecordStream(r, deepConfigs(plat, nil)[:1]) })
		}
		if !reflect.DeepEqual(streams[0], streams[1]) {
			t.Errorf("%s: a stream recorded split differs from one recorded serially", plat.Name)
		}
	}
}

// waitGoroutines polls runtime.NumGoroutine until it is back to base.
func waitGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 500 {
			t.Fatalf("%s: %d goroutines, want %d: the split helper outlived its call", when, runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPartitionHelperExits: the helper goroutine ends with its call, after a
// normal return and after an observer panics mid-run.
func TestPartitionHelperExits(t *testing.T) {
	r := NewReplayer(tinyLeaf().Build())
	mc := deepConfigs(platform.PLT1(), nil)[0]
	Measure(r, mc) // record outside the count
	base := runtime.NumGoroutine()
	forceSplit(t, +1, func() {
		if split, _ := splitDelta(func() { Measure(r, mc) }); split != 1 {
			t.Fatal("the forced measurement did not split")
		}
		waitGoroutines(t, base, "after a normal return")

		seen := 0
		mc.AccessObserver = func(trace.Access, cache.HitLevel) {
			if seen++; seen == 5000 {
				panic("observer")
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the observer's panic did not reach the caller")
				}
			}()
			Measure(r, mc)
		}()
		waitGoroutines(t, base, "after an observer panic")
	})
}

// TestPartitionGate: with the gates in charge, a miss-heavy measurement
// splits when a vCPU is spare, on a Replayer and on a raw runner alike (the
// measured loop replays a recording of it); it stays whole at GOMAXPROCS 1
// and when it is nested inside another measurement that already fills the
// vCPUs; an L1-resident trace stays whole.
func TestPartitionGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	deep := NewReplayer(tinyLeaf().Build())
	resident := NewReplayer(SPECPerlbench().Build())
	mc := deepConfigs(platform.PLT1(), nil)[0]
	res := MeasureConfig{Platform: platform.PLT1(), Cores: 1, SMTWays: 1, Threads: 1, Budget: 400_000, Seed: 5}
	var nested [2]int64
	outer := mc
	outer.AccessObserver = func(trace.Access, cache.HitLevel) {
		if nested == [2]int64{} {
			nested[0], nested[1] = splitDelta(func() { Measure(deep, mc) })
		}
	}
	for _, tc := range []struct {
		name      string
		procs     int
		run       func()
		split     int64
		runs      int64
		nestedRun bool
	}{
		{"deep, a spare vCPU", 2, func() { Measure(deep, mc) }, 1, 1, false},
		{"deep, GOMAXPROCS 1", 1, func() { Measure(deep, mc) }, 0, 1, false},
		{"deep, raw runner", 2, func() { Measure(plainRunner{deep}, mc) }, 1, 1, false},
		{"resident", 2, func() { Measure(resident, res) }, 0, 1, false},
		{"deep, nested past the spare vCPU", 2, func() { Measure(deep, outer) }, 1, 2, true},
	} {
		runtime.GOMAXPROCS(tc.procs)
		if split, runs := splitDelta(tc.run); split != tc.split || runs != tc.runs {
			t.Errorf("%s: %d of %d runs split, want %d of %d", tc.name, split, runs, tc.split, tc.runs)
		}
		if tc.nestedRun && nested != [2]int64{0, 1} {
			t.Errorf("%s: the nested call made %d runs and split %d, want 1 run and no split", tc.name, nested[1], nested[0])
		}
	}
}
