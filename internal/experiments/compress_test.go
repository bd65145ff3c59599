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

// TestCompressedReplayByteIdentical is the tentpole equivalence proof at the
// experiment level: with -trace-compress (and with spill-to-disk on top),
// rendered output is byte-for-byte the flat-storage output. fig6b exercises
// the batched Cursor profile path, fig13 the scalar replay path through the
// SMT model, table1 the measured characterization, figT1 the tiered-memory
// sweep (post-L4 traffic driven into internal/mem), figP1 the
// replacement-policy grid (seeded BRRIP insertion under batched replay),
// and figF1 the fleet-scale serving sweep, whose perf-model probe replays
// the same recordings the storage backend holds.
func TestCompressedReplayByteIdentical(t *testing.T) {
	ids := []string{"table1", "fig6b", "fig13", "figT1", "figP1", "figF1"}
	if testing.Short() {
		ids = []string{"fig6b", "fig13"}
	} else if raceDetectorOn {
		// Same race-mode time-budget trade as TestSameSeedByteIdenticalOutput.
		ids = ids[:len(ids)-3]
	}

	base := Fast()
	base.Seed = 42
	flat := renderIDs(t, base, ids)

	variants := []struct {
		name string
		mut  func(*Options)
	}{
		{"compress", func(o *Options) { o.TraceCompress = true }},
		{"compress+spill", func(o *Options) {
			o.TraceCompress = true
			o.TraceSpillDir = t.TempDir()
		}},
	}
	for _, v := range variants {
		opts := base
		v.mut(&opts)
		got := renderIDs(t, opts, ids)
		if got == flat {
			continue
		}
		a, b := strings.Split(flat, "\n"), strings.Split(got, "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("%s diverges from flat at line %d:\n flat: %q\n %s: %q", v.name, i+1, a[i], v.name, b[i])
			}
		}
		t.Fatalf("%s diverges from flat in length: %d vs %d lines", v.name, len(a), len(b))
	}
}

// TestReportTraceStoresDeterministic checks the store gauges published into
// a -metrics registry are a pure function of the recorded streams: two
// same-seed compressed runs export identical snapshots.
func TestReportTraceStoresDeterministic(t *testing.T) {
	run := func() string {
		opts := Fast()
		opts.Seed = 42
		opts.TraceCompress = true
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
