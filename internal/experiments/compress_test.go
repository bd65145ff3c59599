package experiments

import (
	"fmt"
	"strings"
	"testing"

	"searchmem/internal/obs"
)

// renderIDs runs the given experiments in a fresh context and returns the
// concatenated rendered output, framed exactly as cmd/searchsim prints it.
func renderIDs(t *testing.T, opts Options, ids []string) string {
	t.Helper()
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
		fmt.Fprintf(&b, "=== %s (%s) — %s\n%s\n", e.ID, e.PaperRef, e.Title, res.Render())
	}
	return b.String()
}

// TestCompressedReplayByteIdentical is the storage-equivalence proof at the
// experiment level: spilling the compressed blocks to disk renders
// byte-for-byte what keeping them in RAM renders. A Context has no flat
// store to compare with; that flat ≡ compressed still holds is proven at the
// workload level (TestReplayerCompressedIdentical holds the flat store and
// every compressed geometry to the stream the runner emits directly) and by
// TestAllExperimentsFast's renderDigests, which were taken under the flat
// store and have not been regenerated since. fig6b exercises the batched
// Cursor profile path, fig13 the scalar replay path through the SMT model,
// table1 the measured characterization, figT1 the tiered-memory sweep
// (post-L4 traffic driven into internal/mem), figP1 the replacement-policy
// grid (seeded BRRIP insertion under batched replay), and figF1 the
// fleet-scale serving sweep, whose perf-model probe replays the same
// recordings the storage backend holds.
func TestCompressedReplayByteIdentical(t *testing.T) {
	ids := []string{"table1", "fig6b", "fig13", "figT1", "figP1", "figF1"}
	if testing.Short() {
		ids = []string{"fig6b", "fig13"}
	} else if raceDetectorOn {
		// Same race-mode time-budget trade as TestSameSeedByteIdenticalOutput.
		ids = ids[:len(ids)-3]
	}

	opts := Fast()
	opts.Seed = 42
	inRAM := renderIDs(t, opts, ids)
	opts.TraceSpillDir = t.TempDir()
	spilled := renderIDs(t, opts, ids)
	if spilled == inRAM {
		return
	}
	a, b := strings.Split(inRAM, "\n"), strings.Split(spilled, "\n")
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			t.Fatalf("spilled diverges from in-RAM at line %d:\n in-RAM: %q\n spilled: %q", i+1, a[i], b[i])
		}
	}
	t.Fatalf("spilled diverges from in-RAM in length: %d vs %d lines", len(a), len(b))
}

// TestReportTraceStoresDeterministic checks the store gauges published into
// a -metrics registry are a pure function of the recorded streams: two
// same-seed runs export identical snapshots.
func TestReportTraceStoresDeterministic(t *testing.T) {
	run := func() string {
		opts := Fast()
		opts.Seed = 42
		ctx := NewContext(opts)
		if _, err := mustByID(t, "fig13").Run(ctx); err != nil {
			t.Fatalf("fig13: %v", err)
		}
		reg := obs.NewRegistry()
		ctx.ReportTraceStores(reg)
		var b strings.Builder
		if err := reg.Snapshot().WriteJSON(&b); err != nil {
			t.Fatalf("export: %v", err)
		}
		s := b.String()
		for _, g := range []string{"trace_store_bytes", "trace_store_branch_bytes"} {
			if !strings.Contains(s, g) {
				t.Fatalf("snapshot missing %s gauge:\n%s", g, s)
			}
		}
		return s
	}
	if a, b := run(), run(); a != b {
		t.Error("same-seed runs exported different trace-store gauges")
	}
}

func mustByID(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	return e
}
