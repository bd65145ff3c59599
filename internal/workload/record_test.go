package workload

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"searchmem/internal/platform"
	"searchmem/internal/trace"
)

// scriptedRunner is a deterministic stub whose emitted stream depends on how
// many times it has run, so tests can distinguish a replay (stream frozen at
// recording time) from a re-execution (stream advances with runner state).
type scriptedRunner struct {
	runs    int
	budgets []int64
	seeds   []uint64
}

func (s *scriptedRunner) Name() string        { return "scripted" }
func (s *scriptedRunner) MemOverlap() float64 { return 0 }

func (s *scriptedRunner) Run(threads int, budget int64, seed uint64, sk Sinks) Stats {
	s.runs++
	s.budgets = append(s.budgets, budget)
	s.seeds = append(s.seeds, seed)
	// Interleave accesses and branches in a fixed but non-trivial pattern;
	// addresses encode (run ordinal, seed, index) so any re-execution is
	// visible in the stream.
	n := int(budget)
	for i := 0; i < n; i++ {
		if sk.Access != nil {
			sk.Access(trace.Access{Addr: uint64(s.runs)<<32 | seed<<16 | uint64(i), Size: 1, Seg: trace.Heap, Thread: uint8(i % threads)})
		}
		if i%3 == 1 && sk.Branch != nil {
			sk.Branch(uint8(i%threads), uint64(i)*8, i%2 == 0)
		}
	}
	return Stats{Instructions: budget * 10, Accesses: budget, Branches: budget / 3}
}

// event is a flattened access-or-branch record for stream comparison.
type event struct{ s string }

func captureSinks(out *[]event) Sinks {
	return Sinks{
		Access: func(a trace.Access) { *out = append(*out, event{fmt.Sprintf("A %s", a)}) },
		Branch: func(t uint8, pc uint64, taken bool) {
			*out = append(*out, event{fmt.Sprintf("B %d %d %v", t, pc, taken)})
		},
	}
}

func TestReplayerMemoizes(t *testing.T) {
	inner := &scriptedRunner{}
	rep := NewReplayer(inner)
	var first, second []event
	st1 := rep.Run(2, 10, 7, captureSinks(&first))
	st2 := rep.Run(2, 10, 7, captureSinks(&second))
	if inner.runs != 1 {
		t.Fatalf("inner ran %d times for one key, want 1", inner.runs)
	}
	if st1 != st2 {
		t.Fatalf("replayed stats differ: %+v vs %+v", st1, st2)
	}
	if st1.Instructions != 100 {
		t.Fatalf("stats not forwarded: %+v", st1)
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("stream lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("event %d differs: %q vs %q", i, first[i].s, second[i].s)
		}
	}
	if len(rep.runs) != 1 {
		t.Fatalf("Recordings = %d, want 1", len(rep.runs))
	}
}

func TestReplayerPreservesInterleaving(t *testing.T) {
	// The reference stream: a fresh runner driven directly.
	var want []event
	(&scriptedRunner{}).Run(2, 9, 3, captureSinks(&want))

	var got []event
	NewReplayer(&scriptedRunner{}).Run(2, 9, 3, captureSinks(&got))
	if len(got) != len(want) {
		t.Fatalf("replay emitted %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: replay %q, direct %q", i, got[i].s, want[i].s)
		}
	}
}

func TestReplayerDistinctKeys(t *testing.T) {
	inner := &scriptedRunner{}
	rep := NewReplayer(inner)
	rep.Run(1, 5, 1, Sinks{})
	rep.Run(1, 5, 2, Sinks{}) // new seed: must re-execute
	rep.Run(1, 6, 1, Sinks{}) // new budget: must re-execute
	rep.Run(1, 5, 1, Sinks{}) // recorded: replay only
	if inner.runs != 3 {
		t.Fatalf("inner ran %d times, want 3", inner.runs)
	}
	if len(rep.runs) != 3 {
		t.Fatalf("Recordings = %d, want 3", len(rep.runs))
	}
}

func TestReplayerTraceView(t *testing.T) {
	rep := NewReplayer(&scriptedRunner{})
	sh, st := rep.Trace(2, 8, 5)
	if st.Accesses != 8 || sh.Len() != 8 {
		t.Fatalf("trace len %d / stats %+v, want 8 accesses", sh.Len(), st)
	}
	// The shared trace equals what a replay emits.
	var replayed []event
	rep.Run(2, 8, 5, captureSinks(&replayed))
	cur := sh.Cursor()
	i := 0
	for b := cur.NextBatch(); len(b) > 0; b = cur.NextBatch() {
		i += len(b)
	}
	if i != 8 {
		t.Fatalf("cursor drained %d accesses, want 8", i)
	}
}

// TestReplayerConcurrentReplays exercises read-only concurrent replay of one
// recording (meaningful under -race).
func TestReplayerConcurrentReplays(t *testing.T) {
	rep := NewReplayer(&scriptedRunner{})
	rep.Record(4, 200, 9)
	var reference []event
	rep.Run(4, 200, 9, captureSinks(&reference))

	var wg sync.WaitGroup
	diverged := make([]bool, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got []event
			rep.Run(4, 200, 9, captureSinks(&got))
			if len(got) != len(reference) {
				diverged[g] = true
				return
			}
			for i := range got {
				if got[i] != reference[i] {
					diverged[g] = true
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, d := range diverged {
		if d {
			t.Fatalf("goroutine %d replayed a different stream", g)
		}
	}
}

// replayEvents captures the full merged event stream of one replay through
// the given sink shape (scalar or batched).
func replayEvents(t *testing.T, rep *Replayer, batched bool, threads int, budget int64, seed uint64) []event {
	t.Helper()
	var out []event
	s := captureSinks(&out)
	if batched {
		s.AccessBatch = func(b []trace.Access) {
			for _, a := range b {
				out = append(out, event{fmt.Sprintf("A %s", a)})
			}
		}
	}
	rep.Run(threads, budget, seed, s)
	return out
}

// edgeRunner emits a stream whose branch anchors sit on every boundary the
// stores have: two branches before the first access (pos 0), one after every
// access — so one lands exactly on each chunk edge of the flat store, the
// branch log (budget+2 records) crosses its own chunk edges two accesses
// earlier, and the last is trailing (pos == Len()). A zero budget yields only
// the two leading branches.
type edgeRunner struct{}

func (edgeRunner) Name() string        { return "edge" }
func (edgeRunner) MemOverlap() float64 { return 0 }
func (edgeRunner) Run(threads int, budget int64, seed uint64, sk Sinks) Stats {
	branches := int64(0)
	branch := func(i int64) {
		branches++
		if sk.Branch != nil {
			sk.Branch(uint8(i%int64(threads)), uint64(branches)*4, i%3 == 0)
		}
	}
	branch(0)
	branch(1)
	for i := int64(0); i < budget; i++ {
		if sk.Access != nil {
			sk.Access(trace.Access{Addr: seed<<32 | uint64(i)*8, Size: 8, Seg: trace.Heap, Thread: uint8(i % int64(threads))})
		}
		branch(i)
	}
	return Stats{Instructions: budget * 4, Accesses: budget, Branches: branches}
}

// TestReplayerCompressedIdentical is the transport-equivalence proof at the
// replay layer: a flat Replayer must emit exactly the event stream the
// runner emits when driven directly — every branch before the access it
// preceded, in recorded order — and a compressed Replayer (in-memory blocks,
// several block geometries, and the spill-to-disk path) exactly what the
// flat one does, scalar and batched. It holds for the scripted stream and
// for edgeRunner streams whose lengths straddle the flat store's chunk edges
// and the branch log's.
func TestReplayerCompressedIdentical(t *testing.T) {
	const chunk = trace.DefaultBatchSize
	if chunk != branchChunkLen {
		t.Fatal("the edge budgets assume one chunk length for accesses and branches")
	}
	type stream struct {
		name   string
		fresh  func() Runner
		budget int64
	}
	streams := []stream{{"scripted", func() Runner { return &scriptedRunner{} }, 500}}
	for _, n := range []int64{0, 1, chunk - 3, chunk - 2, chunk - 1, chunk, chunk + 1, 2*chunk - 2, 3*chunk + 7} {
		streams = append(streams, stream{fmt.Sprintf("edge-%d", n), func() Runner { return edgeRunner{} }, n})
	}
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) { testStoresIdentical(t, st.fresh, st.budget) })
	}
}

func testStoresIdentical(t *testing.T, fresh func() Runner, budget int64) {
	const threads, seed = 3, 21
	requireSame := func(label string, got, want []event) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d = %q, want %q", label, i, got[i].s, want[i].s)
			}
		}
	}
	var direct []event
	fresh().Run(threads, budget, seed, captureSinks(&direct))
	if len(direct) == 0 {
		t.Fatal("degenerate reference stream")
	}
	flat := NewReplayer(fresh())
	requireSame("flat scalar vs direct", replayEvents(t, flat, false, threads, budget, seed), direct)
	requireSame("flat batched vs direct", replayEvents(t, flat, true, threads, budget, seed), direct)

	cases := []StoreConfig{
		{Compress: true},
		{Compress: true, blockLen: 1},
		{Compress: true, blockLen: 7},
		{Compress: true, blockLen: 100_000},
	}
	for _, cfg := range cases {
		name := fmt.Sprintf("blockLen=%d", cfg.blockLen)
		rep := NewReplayer(fresh())
		rep.SetStore(cfg)
		for pass := 0; pass < 2; pass++ { // second pass replays the memo
			for _, batched := range []bool{false, true} {
				got := replayEvents(t, rep, batched, threads, budget, seed)
				requireSame(fmt.Sprintf("%s batched=%v pass %d", name, batched, pass), got, direct)
			}
		}
		st := rep.StoreStats()
		if st.Recordings != 1 || st.Accesses != budget || (st.StoredBytes <= 0) != (budget == 0) {
			t.Fatalf("%s: StoreStats = %+v", name, st)
		}
	}

	// Spill-to-disk variant: same stream, bytes resident on disk.
	rep := NewReplayer(fresh())
	rep.SetStore(StoreConfig{Compress: true, blockLen: 64, SpillDir: t.TempDir()})
	defer rep.Close()
	requireSame("spill", replayEvents(t, rep, true, threads, budget, seed), direct)
	st := rep.StoreStats()
	if st.SpilledBytes != st.StoredBytes || (st.SpilledBytes == 0) != (budget == 0) {
		t.Fatalf("spill: StoreStats = %+v, want all bytes spilled", st)
	}
	branches := int64(0)
	for _, e := range direct {
		if e.s[0] == 'B' {
			branches++
		}
	}
	if want := flat.StoreStats(); st.Branches != branches || st.BranchBytes != want.BranchBytes || st.BranchBytes < 3*branches {
		t.Fatalf("spill: %d branches in %d bytes, flat %d in %d, stream holds %d: the branch log is resident under every store",
			st.Branches, st.BranchBytes, want.Branches, want.BranchBytes, branches)
	}
}

// TestReplayerCompressedConcurrent replays one compressed (spilled)
// recording from many goroutines; offset-addressed spill reads and
// per-cursor decode windows make this race-free (meaningful under -race).
func TestReplayerCompressedConcurrent(t *testing.T) {
	rep := NewReplayer(&scriptedRunner{})
	rep.SetStore(StoreConfig{Compress: true, blockLen: 32, SpillDir: t.TempDir()})
	defer rep.Close()
	rep.Record(4, 200, 9)
	var reference []event
	rep.Run(4, 200, 9, captureSinks(&reference))

	var wg sync.WaitGroup
	diverged := make([]bool, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got []event
			rep.Run(4, 200, 9, captureSinks(&got))
			if len(got) != len(reference) {
				diverged[g] = true
				return
			}
			for i := range got {
				if got[i] != reference[i] {
					diverged[g] = true
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, d := range diverged {
		if d {
			t.Fatalf("goroutine %d replayed a different stream", g)
		}
	}
}

// TestSetStoreAfterRecordingPanics pins the SetStore ordering contract.
func TestSetStoreAfterRecordingPanics(t *testing.T) {
	rep := NewReplayer(&scriptedRunner{})
	rep.Record(1, 5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("SetStore after a recording did not panic")
		}
	}()
	rep.SetStore(StoreConfig{Compress: true})
}

// countingRunner records each (budget, seed) Run call for warmup audits.
type countingRunner struct {
	calls []int64
}

func (c *countingRunner) Name() string        { return "counting" }
func (c *countingRunner) MemOverlap() float64 { return 0 }
func (c *countingRunner) Run(threads int, budget int64, seed uint64, s Sinks) Stats {
	c.calls = append(c.calls, budget)
	return Stats{Instructions: budget}
}

// TestMeasureWarmupSentinels pins the WarmupFraction semantics: 0 selects
// the default 0.25, positive fractions (including the calibration runs'
// 2.0) scale it, and a fraction that is not finite or whose warm-up budget
// overflows int64 panics before anything runs instead of skipping the
// warm-up.
func TestMeasureWarmupSentinels(t *testing.T) {
	measure := func(wf float64) []int64 {
		r := &countingRunner{}
		Measure(r, MeasureConfig{
			Platform: platform.PLT1(),
			Cores:    1, SMTWays: 1, Threads: 1,
			Budget:         1000,
			Seed:           1,
			WarmupFraction: wf,
		})
		return r.calls
	}
	if got := measure(0); len(got) != 2 || got[0] != 250 || got[1] != 1000 {
		t.Fatalf("default warmup runs = %v, want [250 1000]", got)
	}
	if got := measure(0.25); len(got) != 2 || got[0] != 250 {
		t.Fatalf("explicit 0.25 runs = %v, want [250 1000]", got)
	}
	if got := measure(2.0); len(got) != 2 || got[0] != 2000 {
		t.Fatalf("2.0 warmup runs = %v, want [2000 1000]", got)
	}
	for _, wf := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e30} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WarmupFraction %v: no panic", wf)
				}
			}()
			t.Errorf("WarmupFraction %v: ran %v", wf, measure(wf))
		}()
	}
}
