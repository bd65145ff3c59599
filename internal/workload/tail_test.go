package workload

import (
	"fmt"
	"reflect"
	"testing"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
	"searchmem/internal/mem"
	"searchmem/internal/platform"
)

// tailMatrix is a mixed sweep over two uppers: below a 512 KiB and a 1 MiB
// L3, tails with no L4, direct-mapped, 8-way and fully associative L4s, the
// 8-way one under LRU, BRRIP and SRRIP with dead-block insertion, near-only
// and far-tier memory, and per-PC and block-keyed level predictors of two
// shapes; plus one Prefetchers config (a group of its own) and two
// observers in the first group, one with a predictor and one without.
// digests[0] and digests[1] collect those observers' (access, level) streams.
func tailMatrix(digests *[2]streamDigest) []MeasureConfig {
	base := MeasureConfig{
		Platform: platform.PLT1().ScaleCaches(16),
		Cores:    2, SMTWays: 1, Threads: 2,
		L3Size: 512 << 10,
		Budget: 200_000,
		Seed:   5,
	}
	near := &mem.Config{}
	far := &mem.Config{Far: &mem.FarConfig{NearPages: 64, Policy: mem.PolicyFreqThreshold, EpochLen: 512}}
	var mcs []MeasureConfig
	add := func(f func(mc *MeasureConfig)) {
		mc := base
		f(&mc)
		mcs = append(mcs, mc)
	}
	add(func(mc *MeasureConfig) {})
	add(func(mc *MeasureConfig) { mc.Mem = far })
	add(func(mc *MeasureConfig) { mc.L4Size = 2 << 20 })
	add(func(mc *MeasureConfig) { mc.L4Size, mc.Mem = 2<<20, near })
	for _, p := range []cache.Policy{cache.LRU, cache.BRRIP, cache.SRRIP} {
		add(func(mc *MeasureConfig) {
			mc.L4Size, mc.L4Assoc, mc.L4Policy, mc.DeadBlock, mc.Mem = 2<<20, 8, p, p == cache.SRRIP, far
		})
	}
	add(func(mc *MeasureConfig) { mc.L4Size, mc.L4Assoc = 2<<20, -1 })
	add(func(mc *MeasureConfig) {
		mc.L4Size, mc.Predictor = 2<<20, &cache.PredictorConfig{}
	})
	add(func(mc *MeasureConfig) {
		mc.Predictor = &cache.PredictorConfig{TableBits: 10, ConfThreshold: 1}
	})
	add(func(mc *MeasureConfig) {
		mc.L4Size, mc.L4Assoc, mc.Mem = 2<<20, 8, near
		mc.Predictor = &cache.PredictorConfig{TableBits: 10, ConfThreshold: 1, IndexBlock: true}
	})
	add(func(mc *MeasureConfig) {
		mc.L4Size, mc.AccessObserver = 2<<20, digests[0].add
	})
	add(func(mc *MeasureConfig) {
		mc.L4Size, mc.AccessObserver = 2<<20, digests[1].add
		mc.Predictor = &cache.PredictorConfig{TableBits: 10, ConfThreshold: 1}
	})
	add(func(mc *MeasureConfig) {
		mc.L4Size, mc.Mem = 2<<20, far
		mc.Prefetchers = func() []cpu.Prefetcher { return []cpu.Prefetcher{cpu.NewStream(64)} }
	})
	// The second upper.
	add(func(mc *MeasureConfig) { mc.L3Size = 1 << 20 })
	add(func(mc *MeasureConfig) { mc.L3Size, mc.L4Size, mc.Mem = 1<<20, 4<<20, far })
	add(func(mc *MeasureConfig) {
		mc.L3Size, mc.L4Size, mc.L4Assoc = 1<<20, 4<<20, -1
		mc.Predictor = &cache.PredictorConfig{IndexBlock: true}
	})
	return mcs
}

// TestTailsMatchAlone is the split's state-deep differential: every
// configuration's full Metrics — Mem, Pred and per-level stats included —
// must be the same measured alone, in one MeasureMulti over the whole mixed
// matrix, in that MeasureMulti reversed, and replayed from its group's
// recorded Stream in any order and shard split. It also checks the
// independence law (every member of an upper group reports identical L1–L3
// counters, the predictor overlay aside) and that a level predictor changes
// no level an observer sees.
func TestTailsMatchAlone(t *testing.T) {
	r := NewReplayer(tinyLeaf().Build())
	var digests [2]streamDigest
	mcs := tailMatrix(&digests)
	refs := make([]Metrics, len(mcs))
	for i, mc := range mcs {
		refs[i] = Measure(r, mc)
	}
	alone := digests
	check := func(what string, i int, got Metrics) {
		t.Helper()
		if !reflect.DeepEqual(got, refs[i]) {
			t.Errorf("config %d %s diverges from Measure alone\n got: %+v\nwant: %+v", i, what, got, refs[i])
		}
	}

	digests = [2]streamDigest{}
	for i, m := range MeasureMulti(r, mcs) {
		check("in one MeasureMulti", i, m)
	}
	if digests != alone {
		t.Errorf("observers in a shared run saw %+v, alone %+v", digests, alone)
	}
	if alone[0].n == 0 || alone[0] != alone[1] {
		t.Errorf("predictor on and off observed different levels: off %+v, on %+v", alone[0], alone[1])
	}
	rev := make([]MeasureConfig, len(mcs))
	for i := range mcs {
		rev[len(mcs)-1-i] = mcs[i]
	}
	for k, m := range MeasureMulti(r, rev) {
		check("in a reversed MeasureMulti", len(mcs)-1-k, m)
	}

	groups := StreamGroups(mcs)
	if len(groups) != 3 || !groups[0].Live || !groups[1].Live || groups[2].Live {
		t.Fatalf("groups = %+v, want the observed upper and the prefetcher (both live), then the second upper", groups)
	}
	served := 0
	for _, g := range StreamGroups(mcs) {
		// Independence: one upper, identical L1–L3 counters.
		mask := func(s cache.AccessStats) cache.AccessStats {
			s.PredHits, s.PredMispredicts, s.PredSkips = 0, 0, 0
			return s
		}
		first := refs[g.Members[0]]
		for _, i := range g.Members[1:] {
			m := refs[i]
			if m.L1 != first.L1 || mask(m.L2) != mask(first.L2) || mask(m.L3) != mask(first.L3) || m.Run != first.Run {
				t.Errorf("config %d reports other L1–L3 counters than config %d of its upper", i, g.Members[0])
			}
		}
		// The group from its stream — its members that need no live run —
		// whole, reversed, and in every two-way split, each part from its own
		// Replay.
		var idx []int
		for _, i := range g.Members {
			if mcs[i].AccessObserver == nil && mcs[i].Prefetchers == nil {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		sub := func(idx []int) []MeasureConfig {
			out := make([]MeasureConfig, len(idx))
			for k, i := range idx {
				out[k] = mcs[i]
			}
			return out
		}
		s := RecordStream(r, sub(idx))
		if s.Events() == 0 || s.Bytes() == 0 {
			t.Fatalf("group %v recorded an empty stream", idx)
		}
		for k, m := range s.Measure(r, sub(idx)) {
			check("from its stream", idx[k], m)
		}
		back := make([]int, len(idx))
		for k := range idx {
			back[len(idx)-1-k] = idx[k]
		}
		for k, m := range s.Measure(r, sub(back)) {
			check("from its stream, reversed", back[k], m)
		}
		for cut := 1; cut < len(idx); cut++ {
			for _, part := range [][]int{idx[:cut], idx[cut:]} {
				for k, m := range s.Measure(r, sub(part)) {
					check(fmt.Sprintf("from its stream, split at %d", cut), part[k], m)
				}
			}
		}
		served++
	}
	if served != 2 {
		t.Errorf("%d groups served from a stream, want both uppers", served)
	}
}

// TestStreamRejectsOtherUpper: a Stream serves only its own upper and never
// a predictor it recorded no L1-miss records for.
func TestStreamRejectsOtherUpper(t *testing.T) {
	r := NewReplayer(tinyLeaf().Build())
	var digests [2]streamDigest
	mcs := tailMatrix(&digests)
	plain := []MeasureConfig{mcs[0], mcs[2]}
	s := RecordStream(r, plain)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	other := mcs[0]
	other.L3Size = 1 << 20
	mustPanic("another upper", func() { s.Measure(r, []MeasureConfig{other}) })
	mustPanic("a predictor without L1-miss records", func() { s.Measure(r, []MeasureConfig{mcs[9]}) })
	mustPanic("an observer", func() { RecordStream(r, []MeasureConfig{mcs[11]}) })
	keyed := RecordStream(r, []MeasureConfig{mcs[9], mcs[0]})
	if got := keyed.Measure(r, plain); !reflect.DeepEqual(got, s.Measure(r, plain)) {
		t.Error("a stream with L1-miss records serves predictor-free tails differently")
	}
}
