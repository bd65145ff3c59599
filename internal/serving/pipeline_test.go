package serving

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"searchmem/internal/obs"
	"searchmem/internal/stats"
)

// pipelineScenario is an open day of about 7 000 issues, twice what the
// pipeline's three batch buffers hold, so each is refilled: 300 clients, a
// diurnal curve, a ×3 burst, a cache flush and a two-leaf outage.
func pipelineScenario() Scenario {
	const d = 5e8
	return Scenario{
		Clients: 300, VocabSize: 400, Skew: 1.1, Seed: 23,
		Arrival: &RateCurve{
			BaseQPS:          12_000,
			DiurnalAmplitude: 0.3,
			DiurnalPeriodNS:  d / 2,
			Bursts:           []Burst{{StartNS: 0.2 * d, EndNS: 0.3 * d, Factor: 3}},
		},
		DurationNS: d,
		Events: []FleetEvent{
			{AtNS: 0.4 * d, FlushCache: true},
			{AtNS: 0.6 * d, OutageLeaf: 0, OutageLeaves: 2, OutageDurationNS: 0.1 * d},
		},
	}
}

// pipelineCluster is a six-leaf faultyCluster with deadlines, hedging, a
// leaf capacity the scenario's occupancy reaches and a cache that holds the
// whole vocabulary, so most queries are cheap hits and misses follow the
// flush; traced when tracer is set.
func pipelineCluster(tracer *obs.Tracer) *Cluster {
	cfg := DefaultConfig()
	cfg.CacheSlots = 1024
	cfg.LeafDeadlineNS = 40e6
	cfg.HedgeDelayNS = 5e6
	cfg.LeafCapacity = 400
	cfg.Tracer = tracer
	return faultyCluster(cfg, 6, 5)
}

// waitForGoroutines polls runtime.NumGoroutine until it is back at base;
// an exiting goroutine is counted until it has finished unwinding.
func waitForGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the run", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// panicExec panics on its cluster's call number at, counted over the
// leaves that share calls.
type panicExec struct {
	Executor
	calls *int
	at    int
}

func (p panicExec) SearchBuf(terms []uint32, docs []uint32, scores []float32) (int, float64, error) {
	if *p.calls++; *p.calls == p.at {
		panic("leaf crashed")
	}
	return p.Executor.SearchBuf(terms, docs, scores)
}

// TestPipelineNoGoroutineOutlivesRun checks that RunScenario's open loop
// leaves no goroutine behind: after a whole day, and after an Executor
// that panics while the generator is several batches into the schedule.
// The panic reaches the caller, and the cluster is free for the next drive.
func TestPipelineNoGoroutineOutlivesRun(t *testing.T) {
	base := runtime.NumGoroutine()
	if fs := RunScenario(pipelineCluster(nil), pipelineScenario()); fs.Served < 3*issueBatch {
		t.Fatalf("served %d queries, want several batches of %d", fs.Served, issueBatch)
	}
	waitForGoroutines(t, "after a whole day", base)

	cfg := DefaultConfig()
	cfg.CacheSlots = 0 // every query calls both leaves
	cfg.Leaves, cfg.Fanout = 2, 2
	calls := 0
	execs := make([]Executor, cfg.Leaves)
	for i := range execs {
		execs[i] = panicExec{NewSyntheticExecutor(uint32(i), cfg.TopK), &calls, 5 * issueBatch * cfg.Leaves / 2}
	}
	c := NewCluster(cfg, execs)
	func() {
		defer func() {
			if r := recover(); r != "leaf crashed" {
				t.Fatalf("recovered %v, want the executor's panic", r)
			}
		}()
		RunScenario(c, pipelineScenario())
		t.Fatal("RunScenario returned although an executor panicked")
	}()
	waitForGoroutines(t, "after an executor panic", base)
	if c.Serve(Query{Terms: []uint32{1, 2}}).LatencyNS <= 0 {
		t.Fatal("no latency from a Serve after the panicked run")
	}
}

// TestPipelineSameAtOneAndTwoProcs runs pipelineScenario, traced, at
// GOMAXPROCS 1, where the generator and the server take turns, and at 2,
// where they overlap: FleetStats, Metrics and the digest of every span tree
// must be equal. The untraced run must also equal naiveScenario, which
// serves its issues inline, so a batch handed over twice, skipped or
// overwritten while it is served is caught against an oracle and not only
// against the engine itself.
func TestPipelineSameAtOneAndTwoProcs(t *testing.T) {
	type run struct {
		fs     FleetStats
		m      Metrics
		traces string
	}
	at := func(procs int) run {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tracer := obs.NewTracer()
		c := pipelineCluster(tracer)
		fs := RunScenario(c, pipelineScenario())
		return run{fs, c.Metrics(), traceDigest(tracer.Take())}
	}
	one, two := at(1), at(2)
	if one != two {
		t.Fatalf("GOMAXPROCS 1 and 2 differ\n1: %+v\n2: %+v", one, two)
	}
	if one.fs.Served <= issueBuffers*issueBatch || one.fs.PartialResults == 0 {
		t.Fatalf("served %d (%d partial), want more than %d queries and some partial", one.fs.Served, one.fs.PartialResults, issueBuffers*issueBatch)
	}
	c := pipelineCluster(nil)
	want := naiveScenario(c, pipelineScenario(), 0)
	if one.fs != want || one.m != c.Metrics() {
		t.Fatalf("pipeline and naive reference differ\npipeline %+v\nnaive    %+v", one.fs, want)
	}
}

// traceDigest hashes every field of every span of traces, times by their
// bits, in order.
func traceDigest(traces []obs.Trace) string {
	h := sha256.New()
	var b []byte
	for _, tr := range traces {
		b = binary.LittleEndian.AppendUint64(b[:0], tr.ID)
		b = append(append(b, tr.Name...), 0)
		for _, sp := range tr.Spans {
			b = binary.LittleEndian.AppendUint64(b, sp.ID)
			b = binary.LittleEndian.AppendUint64(b, sp.Parent)
			b = append(append(b, sp.Name...), 0)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sp.StartNS))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sp.EndNS))
			for _, a := range sp.Attrs {
				b = append(append(append(append(b, a.Key...), 0), a.Value...), 0)
			}
			b = append(b, 1)
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// serialArrivals is the first-arrival scan written plainly: every client's
// stream NewRNG(seed+cl*977).Split(), its Exponential(mean) kept when
// before the horizon, in client order.
func serialArrivals(clients int, seed uint64, mean, horizon float64) []event {
	var a []event
	for cl := 0; cl < clients; cl++ {
		if t := stats.NewRNG(seed + uint64(cl)*977).Split().Exponential(mean); t < horizon {
			a = append(a, event{t: t, id: int32(cl)})
		}
	}
	return a
}

// byID orders events by client id.
func byID(a, b event) int { return int(a.id) - int(b.id) }

// requireSameArrivals fails unless got holds exactly want's arrivals, in
// any order.
func requireSameArrivals(t *testing.T, what string, got, want []event) {
	t.Helper()
	got = slices.Clone(got)
	slices.SortFunc(got, byID)
	if len(got) != len(want) {
		t.Fatalf("%s: %d arrivals, serial scan %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: arrival %d is %+v, serial scan %+v", what, i, got[i], want[i])
		}
	}
}

// TestPipelineScanMatchesSerial holds the two-half first-arrival scan to
// serialArrivals at 1, 2, 3 and 4 097 clients (horizons that admit about
// half of them) and at a million clients of which about 1 % arrive; then
// queueArrivals as a whole, which must also give each sorted arrival its
// position as slot and its client's stream advanced past the arrival. Up
// to 4 097 clients the scan also runs at reserves far below the arrival
// count, where each half runs out of room and is finished by appending,
// and the result must not change.
func TestPipelineScanMatchesSerial(t *testing.T) {
	const seed = 31
	for _, tc := range []struct {
		clients       int
		mean, horizon float64
	}{
		{1, 1e9, 1e10}, {2, 1e9, 7e8}, {3, 1e9, 7e8}, {4097, 1e9, 7e8},
		{1_000_000, 1e9, 0.01005 * 1e9},
	} {
		want := serialArrivals(tc.clients, seed, tc.mean, tc.horizon)
		f := newFirstDraw(tc.mean, tc.horizon)
		what := fmt.Sprintf("%d clients", tc.clients)
		requireSameArrivals(t, what, scanArrivals(f, seed, tc.clients, tc.clients/2, tc.clients-tc.clients/2), want)
		for _, caps := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {3, 2}} {
			if tc.clients > 4097 {
				break
			}
			got := scanArrivals(f, seed, tc.clients, caps[0], caps[1])
			requireSameArrivals(t, fmt.Sprintf("%s, reserves %v", what, caps), got, want)
		}

		e := newLoadEngine(400, 1.1)
		e.queueArrivals(tc.clients, seed, tc.mean, tc.horizon)
		queued := slices.Clone(e.arrivals)
		for i := range queued {
			queued[i].slot = 0
		}
		requireSameArrivals(t, what+", queued", queued, want)
		if !slices.IsSortedFunc(e.arrivals, byTimeThenID) {
			t.Fatalf("%s: queued arrivals are not in (t, id) order", what)
		}
		for i, ev := range e.arrivals {
			r := stats.NewRNG(seed + uint64(ev.id)*977).Split()
			r.Uint64()
			if ev.slot != int32(i) || e.rng[i] != *r {
				t.Fatalf("%s: arrival %d (client %d) has slot %d and a stream other than its client's", what, i, ev.id, ev.slot)
			}
		}
	}
}

// TestFirstDrawMatchesExponential holds the horizon pre-filter to the plain
// Exponential-then-compare: draw for draw on the 53-bit draws at the skip
// threshold and one either side of it (and at 0 and 2⁵³−1), and scan for
// scan over 4 097 clients' streams, at an infinite horizon, a horizon below
// mean·2⁻⁵³, huge and tiny means, and fleet_day's ratio, where the filter
// must skip the clients that do not arrive: the share of draws at or above
// the threshold is exp(−horizon/mean) to within its 10⁻⁹ band.
func TestFirstDrawMatchesExponential(t *testing.T) {
	for _, tc := range []struct {
		mean, horizon float64
		skips         bool // whether the threshold lies inside the draw range
	}{
		{1e9, math.Inf(1), false},
		{1e9, 1e9 * 0x1p-54, true},
		{1e300, 3e299, true},
		{1e-300, 7e-301, true},
		{5e10, 3e10, true},
		{1, 40, false}, // exp(−40) < 2⁻⁵³: every draw arrives
	} {
		f := newFirstDraw(tc.mean, tc.horizon)
		what := fmt.Sprintf("mean %g, horizon %g", tc.mean, tc.horizon)
		if got := f.past < 1<<53; got != tc.skips {
			t.Fatalf("%s: threshold %d, want a skip range %v", what, f.past, tc.skips)
		}
		if tc.skips {
			share := 1 - float64(f.past)/(1<<53)
			if want := math.Exp(-tc.horizon / tc.mean); math.Abs(share-want) > 2e-9*want+0x1p-52 {
				t.Fatalf("%s: skips a share %g of the draws, want %g", what, share, want)
			}
		}
		for _, k := range []uint64{0, f.past - 1, f.past, f.past + 1, 1<<53 - 1} {
			if k >= 1<<53 {
				continue
			}
			wantT := -tc.mean * math.Log(1-float64(k)/(1<<53))
			gotT, in := f.at(k<<11 | 0x5a5)
			if in != (wantT < tc.horizon) || (in && gotT != wantT) {
				t.Fatalf("%s: draw %d (threshold %d) gives %g, %v; Exponential %g, %v",
					what, k, f.past, gotT, in, wantT, wantT < tc.horizon)
			}
		}
		got, next := f.scan(make([]event, 0, 4097), 41, 0, 4097)
		if next != 4097 {
			t.Fatalf("%s: scan stopped at client %d with room left", what, next)
		}
		requireSameArrivals(t, what+", scan", got, serialArrivals(4097, 41, tc.mean, tc.horizon))
	}
}
