package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"searchmem/internal/obs"
	"searchmem/internal/workload"
)

// base is the one render every determinism law is held to: every registered
// experiment in registry order on one parallel, in-RAM context with no
// observers, which is what `searchsim -fast all` prints. renderBase always
// renders the whole suite first, so neither a -run filter nor the test order
// can change a render (recording order is Replayer state, DESIGN.md §10).
// It keeps what the tests read of the context, not the context's memos.
var base struct {
	once    sync.Once
	renders []render // in registry order
	streams []StreamReport
	stores  map[string]workload.StoreStats
}

// render is one experiment's rendered output, or its error.
type render struct {
	out string
	err error
}

// renderBase renders the base on its first call.
func renderBase() {
	base.once.Do(func() {
		ctx := NewContext(lawScale())
		base.renders = renderAll(ctx)
		base.streams, base.stores = ctx.PostL3Streams(), ctx.TraceStores()
	})
}

// smokeScale reports whether the base renders at bench -smoke's scale:
// under -short, and under the race detector, whose slowdown three renders of
// the suite at Fast() scale would multiply.
func smokeScale() bool { return testing.Short() || raceDetectorOn }

// lawScale is the scale of the base and of every variant of it.
func lawScale() Options {
	opts := Fast()
	if smokeScale() {
		opts.Shrink, opts.Budget = 64, 100_000
	}
	return opts
}

// renderAll runs every registered experiment in registry order on ctx.
func renderAll(ctx *Context) []render {
	var out []render
	for _, e := range All() {
		res, err := e.Run(ctx)
		r := render{err: err}
		if err == nil {
			r.out = res.Render()
		}
		out = append(out, r)
	}
	return out
}

// TestRenderLaws holds all registered experiments to the determinism laws
// (DESIGN.md §7, §9, §15, §16): each of two fresh contexts, a variant of the
// base's, must render byte-for-byte what the base rendered.
//
// Variant A runs serially with every sweep's points and every fan-out of
// legs walked backwards. The parallel engine usually starts points in index
// order, so a point that replays a key another point records would pass
// serial ≡ parallel by luck; backwards, the order it needs is wrong every
// time. Variant B runs in parallel with its recordings spilled to disk.
// Between them: serial ≡ parallel ≡ repeat, backwards ≡ forwards and
// in-RAM ≡ spilled. Both carry a tracer and a metrics registry, which must
// not move a digit (observers on ≡ off), and their exports, the files
// searchsim -trace/-metrics writes, must be byte-identical.
func TestRenderLaws(t *testing.T) {
	renderBase()
	variants := []struct {
		name             string
		spill            bool
		traces, snapshot string
	}{{name: "serial-backwards"}, {name: "parallel-spilled", spill: true}}
	t.Run("variants", func(t *testing.T) {
		for i := range variants {
			v := &variants[i]
			t.Run(v.name, func(t *testing.T) {
				t.Parallel()
				opts := lawScale()
				opts.Parallel = v.spill
				if v.spill {
					opts.TraceSpillDir = t.TempDir()
				}
				opts.Tracer, opts.Metrics = obs.NewTracer(), obs.NewRegistry()
				ctx := NewContext(opts)
				ctx.reversePoints = !v.spill
				for i, got := range renderAll(ctx) {
					switch id, want := All()[i].ID, base.renders[i].out; {
					case got.err != nil:
						t.Errorf("%s: %v", id, got.err)
					case got.out != want:
						t.Errorf("%s departs from the base render at %s", id, firstDiff(got.out, want))
					}
				}
				// A store spills all it holds or nothing; that is the one
				// series the exports may differ in, so it is zeroed.
				for key, st := range ctx.TraceStores() {
					if spilled := st.SpilledBytes == st.StoredBytes; spilled != v.spill || st.StoredBytes == 0 {
						t.Errorf("%s spilled %d of %d stored bytes", key, st.SpilledBytes, st.StoredBytes)
					}
				}
				ctx.ReportTraceStores(opts.Metrics)
				snap := opts.Metrics.Snapshot()
				for i, g := range snap.Gauges {
					if g.Name == "trace_store_spilled_bytes" {
						snap.Gauges[i].Value = 0
					}
				}
				var tb, mb strings.Builder
				if err := obs.WriteChromeTrace(&tb, opts.Tracer.Take()); err != nil {
					t.Fatalf("trace export: %v", err)
				}
				if err := snap.WriteJSON(&mb); err != nil {
					t.Fatalf("metrics export: %v", err)
				}
				v.traces, v.snapshot = tb.String(), mb.String()
			})
		}
	})
	a, b := variants[0], variants[1]
	if a.traces != b.traces {
		t.Errorf("the variants export different Chrome-trace JSON, at %s", firstDiff(b.traces, a.traces))
	}
	if a.snapshot != b.snapshot {
		t.Errorf("the variants export different metrics JSON, at %s", firstDiff(b.snapshot, a.snapshot))
	}
	if !strings.Contains(a.traces, `"name":"access-stream"`) {
		t.Error("trace export missing the profiler's access-stream spans")
	}
	for _, g := range []string{`"fleetprof_topdown_err_pp"`, `"trace_store_bytes"`, `"trace_store_branch_bytes"`} {
		if !strings.Contains(a.snapshot, g) {
			t.Errorf("metrics export missing %s", g)
		}
	}
}

// firstDiff locates the first line where got departs from want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length: %d lines, want %d", len(g), len(w))
}
