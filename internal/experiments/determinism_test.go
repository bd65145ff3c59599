package experiments

import (
	"fmt"
	"strings"
	"testing"

	"searchmem/internal/obs"
)

// TestSameSeedByteIdenticalOutput is the end-to-end property the searchlint
// rules exist to protect: two experiment runs with the same seed must
// render byte-identical tables — the exact stream cmd/searchsim prints —
// whether the sweep engine runs serial or parallel (DESIGN.md §15).
// Each run uses a fresh Context so nothing is shared but the seed.
func TestSameSeedByteIdenticalOutput(t *testing.T) {
	// A cross-section of the pipeline: measured workload characterization
	// (table1), MPKI curves (fig2a), the L4 headline (fig6b, whose segment
	// profilers run as four legs), the SMT model (fig13), the fault-injected
	// serving tier (degraded); then, too slow for the race job, the
	// tiered-memory sweeps (figT1/figT2), whose DRAM bank state and
	// page-migration engine must replay identically under the parallel
	// engine, the policy/predictor sweeps (figP1/figP2), whose seeded
	// BRRIP insertion and predictor tables must do the same, the
	// fleet-scale serving sweeps (figF1/figF2), whose open-loop event
	// engine and shared metrics registry must render identically however
	// the points are scheduled, and the experiments that run independent
	// legs side by side (explore, fig2c, bandwidth, slo), whose recordings
	// must come out in the serial order whichever leg gets there first.
	ids := []string{"table1", "fig2a", "fig6b", "fig13", "degraded"}
	if testing.Short() {
		ids = []string{"table1", "fig13", "figP2"}
	} else if !raceDetectorOn {
		// The rest pushes this package past the race-mode time budget (the
		// seed id list alone was ~8 min under -race). Byte-identity does not
		// depend on instrumentation; the sweep engines' race coverage lives
		// in the tier tests and TestConcurrentExperimentsShareOneContext, the legs' in
		// TestLegsSerialEqualsParallel.
		ids = append(ids, "figT1", "figT2", "figP1", "figP2", "figF1", "figF2", "explore", "fig2c", "bandwidth", "slo")
	}

	checkSerialEqualsParallel(t, Fast(), ids)
}

// TestLegsSerialEqualsParallel renders every experiment that fans out legs
// (explore and newPerfModel's, fig2c, bandwidth, slo, degraded, fig6b's
// segment profilers) serial and parallel at the scale bench -smoke uses,
// small enough to run under -short and under the race detector.
func TestLegsSerialEqualsParallel(t *testing.T) {
	opts := Fast()
	opts.Shrink, opts.Budget = 64, 100_000
	checkSerialEqualsParallel(t, opts, []string{"explore", "fig2c", "bandwidth", "slo", "degraded", "fig6b"})
}

// TestPointOrderDoesNotMatter gives the legs rule teeth. The parallel engine
// usually starts points in index order, so a leg that records a key another
// leg replays would still pass serial ≡ parallel by luck; walking every sweep
// and every fan-out of legs backwards, serially, makes the order it would
// need wrong every time. Equal renders mean no point leaks recording order
// into another.
func TestPointOrderDoesNotMatter(t *testing.T) {
	opts := Fast()
	opts.Shrink, opts.Budget, opts.Seed, opts.Parallel = 64, 100_000, 42, false
	ids := []string{"explore", "fig2c", "bandwidth", "slo", "degraded", "fig6b", "table1", "figF1"}
	forward, backward := NewContext(opts), NewContext(opts)
	backward.reversePoints = true
	for _, id := range ids {
		e, _ := ByID(id)
		want, err := e.Run(forward)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got, err := e.Run(backward)
		if err != nil {
			t.Fatalf("%s backwards: %v", id, err)
		}
		if got.Render() != want.Render() {
			t.Errorf("%s renders differently with its points walked backwards:\n%s\nforwards:\n%s", id, got.Render(), want.Render())
		}
	}
}

// TestSharedUpperSweeps renders the experiments whose sweeps share the
// canonical sweep upper (fig14's two L4 sweeps, figT1, figT2, figP1's L4
// rows, figP2) at bench -smoke scale serially, in parallel, and serially
// with every sweep's points and shards walked backwards: all byte-identical,
// small enough for the race job. The serial context must have run that
// upper twice — once plain, once keying L1 misses for figP2's predictors —
// and served all 48 of their tails from those two streams.
func TestSharedUpperSweeps(t *testing.T) {
	ids := []string{"fig14", "figT1", "figT2", "figP1", "figP2"}
	render := func(parallel, backwards bool) (string, *Context) {
		opts := Fast()
		opts.Shrink, opts.Budget, opts.Seed, opts.Parallel = 64, 100_000, 42, parallel
		ctx := NewContext(opts)
		ctx.reversePoints = backwards
		var b strings.Builder
		for _, id := range ids {
			e, _ := ByID(id)
			res, err := e.Run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			fmt.Fprintf(&b, "=== %s\n%s\n", id, res.Render())
		}
		return b.String(), ctx
	}
	serial, ctx := render(false, false)
	for _, r := range []struct {
		name              string
		parallel, reverse bool
	}{{"parallel", true, false}, {"backwards", false, true}} {
		if got, _ := render(r.parallel, r.reverse); got != serial {
			t.Errorf("%s render differs from the serial one:\n%s\nserial:\n%s", r.name, got, serial)
		}
	}
	streams := ctx.PostL3Streams()
	var tails int64
	for _, s := range streams {
		tails += s.Tails
		if s.Runner != "s1-leaf-sweep" {
			t.Errorf("stream over %q, want the sweep recording", s.Runner)
		}
	}
	if len(streams) != 2 || tails != 48 {
		t.Errorf("%d L1–L3 passes serving %d tails, want 2 serving 48: %+v", len(streams), tails, streams)
	}
}

// checkSerialEqualsParallel renders ids in order on a fresh Context three
// times — serial, parallel, parallel again — framed as cmd/searchsim prints
// them, and fails on the first line that differs from the serial render.
func checkSerialEqualsParallel(t *testing.T, opts Options, ids []string) {
	t.Helper()
	render := func(parallel bool) string {
		opts := opts
		opts.Seed = 42
		opts.Parallel = parallel
		ctx := NewContext(opts)
		var b strings.Builder
		for _, id := range ids {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			res, err := e.Run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			// Mirror cmd/searchsim's output framing.
			fmt.Fprintf(&b, "=== %s (%s) — %s\n%s\n", e.ID, e.PaperRef, e.Title, res.Render())
		}
		return b.String()
	}

	serial := render(false)
	for _, r := range []struct{ name, got string }{
		{"parallel", render(true)},
		{"parallel repeat", render(true)},
	} {
		if r.got == serial {
			continue
		}
		// Pinpoint the first divergence for the report.
		a, b := strings.Split(serial, "\n"), strings.Split(r.got, "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("%s run diverges from serial at line %d:\n serial: %q\n %s: %q", r.name, i+1, a[i], r.name, b[i])
			}
		}
		t.Fatalf("%s run diverges from serial in length: %d vs %d lines", r.name, len(a), len(b))
	}
}

// TestSameSeedByteIdenticalExports extends the determinism contract to the
// observability exports (DESIGN.md §16): two same-seed fleetprof runs with a
// tracer and metrics registry attached must render the same table AND write
// byte-identical Chrome-trace JSON and metrics-snapshot JSON — the exact
// files cmd/searchsim -trace/-metrics produces.
func TestSameSeedByteIdenticalExports(t *testing.T) {
	if testing.Short() {
		t.Skip("fleetprof measurement is slow in -short mode")
	}
	run := func() (render, traceJSON, metricsJSON string) {
		opts := Fast()
		opts.Seed = 42
		opts.Tracer = obs.NewTracer()
		opts.Metrics = obs.NewRegistry()
		ctx := NewContext(opts)
		e, ok := ByID("fleetprof")
		if !ok {
			t.Fatal("fleetprof not registered")
		}
		res, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("fleetprof: %v", err)
		}
		var tb, mb strings.Builder
		if err := obs.WriteChromeTrace(&tb, opts.Tracer.Take()); err != nil {
			t.Fatalf("trace export: %v", err)
		}
		if err := opts.Metrics.Snapshot().WriteJSON(&mb); err != nil {
			t.Fatalf("metrics export: %v", err)
		}
		return res.Render(), tb.String(), mb.String()
	}
	r1, t1, m1 := run()
	r2, t2, m2 := run()
	if r1 != r2 {
		t.Error("same-seed fleetprof runs rendered different tables")
	}
	if t1 != t2 {
		t.Error("same-seed fleetprof runs exported different Chrome-trace JSON")
	}
	if m1 != m2 {
		t.Error("same-seed fleetprof runs exported different metrics JSON")
	}
	if !strings.Contains(t1, `"name":"access-stream"`) {
		t.Error("trace export missing profiler access-stream spans")
	}
	if !strings.Contains(m1, "fleetprof_topdown_err_pp") {
		t.Error("metrics export missing fleetprof gauges")
	}
}
