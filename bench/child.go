package main

import (
	"strings"
	"time"
)

// childReport is what one child process (one repetition) hands its parent,
// as one line of JSON on standard output.
type childReport struct {
	SetupS float64 `json:"setup_s"`
	TimedS float64 `json:"timed_s"`
	Ops    int64   `json:"ops"`
	Digest string  `json:"sim_digest"`
	checks
	// Traced children only.
	Layers map[string]metric `json:"layers,omitempty"`
	Budget []budgetRow       `json:"budget,omitempty"`
	// PeakRSSMiB is filled in by the parent from the child's rusage.
	PeakRSSMiB float64 `json:"peak_rss_mib"`
}

// traceSummary is what a workload's layers method derives its metrics from.
type traceSummary struct {
	// spans holds calls and self time by span name; the glue a phase spent
	// between layer calls is "residual.<phase>".
	spans map[string]budgetRow
	// untracedS and tracedS are the walls of the untraced pass and of the
	// traced pass over the same work.
	untracedS, tracedS float64
}

func summarize(rows []budgetRow) map[string]budgetRow {
	out := map[string]budgetRow{}
	for _, r := range rows {
		name := r.Span
		if name == "residual" {
			name += "." + r.Phase
		}
		t := out[name]
		t.Calls += r.Calls
		t.SelfS += r.SelfS
		out[name] = t
	}
	return out
}

// runUntraced is one repetition: set up, then the timed passes through the
// simulator's own entry points. start is when the process began.
func runUntraced(w workloadDef, smoke bool, seed uint64, passes int, start time.Time) childReport {
	var r childReport
	b := w.new(smoke)
	b.setup(seed, passes, nil)
	r.SetupS = since(start)
	t0 := now()
	for i := 0; i < passes; i++ {
		ops, digest := b.pass(i, &r.checks)
		r.Ops += ops
		if i == 0 {
			r.Digest = digest
		}
		r.that(digest == r.Digest, "%s: pass %d digest %s differs from pass 0 digest %s", w.name, i, digest, r.Digest)
	}
	r.TimedS = since(t0)
	return r
}

// budgetLayers are the modules whose self time the traced run reports under
// budget.<module>_frac: the prefix of a span name is the module it calls into.
var budgetLayers = []string{"search", "workload", "trace", "cache", "mem", "cpu", "serving", "experiments"}

// runTraced is the separate run that yields the per-layer numbers: the host
// probe, a traced set-up, one untraced pass for reference, the same pass
// again under spans, and the workload's probes. End-to-end numbers never
// come from here.
func runTraced(w workloadDef, smoke bool, seed uint64, sizes [3]int, spanDir string) (childReport, error) {
	var r childReport
	l1, llc, dram := hostProbe(seed, sizes)
	spanNS := spanCostNS()

	tr := newTracer(w.name)
	b := w.new(smoke)
	t0 := now()
	s := tr.begin("bench.setup")
	b.setup(seed, 2, tr) // inputs for the untraced pass and for the traced one
	tr.end(s)
	r.SetupS = since(t0)

	t0 = now()
	ops, digest := b.pass(0, &r.checks)
	untracedS := since(t0)
	r.Ops, r.Digest = ops, digest

	s = tr.begin("bench.timed")
	tracedOps := b.tracedPass(1, tr, &r.checks)
	tr.end(s)
	r.TimedS = tr.seconds(s)
	r.that(tracedOps == ops, "%s: traced pass did %d ops, untraced pass %d", w.name, tracedOps, ops)
	timedSpans := len(tr.spans)

	sum := traceSummary{spans: summarize(tr.budget()), untracedS: untracedS, tracedS: r.TimedS}
	r.Layers = b.layers(tr, sum)
	r.Budget = tr.budget()

	// The budget again, by module, under names every workload shares: this
	// is the per_layer list of BENCHMARK.json. They are shares of the traced
	// wall (set-up + timed phase; seconds = share x budget.traced_s), so a
	// module a workload leaves idle reads 0 — that workload's "no change"
	// prediction — without posing as a measured time.
	traced := r.SetupS + r.TimedS
	byLayer := map[string]float64{}
	var residual float64
	for _, row := range r.Budget {
		if row.Phase == "probes" {
			continue
		}
		if row.Span == "residual" {
			residual += row.SelfS
			continue
		}
		layer, _, _ := strings.Cut(row.Span, ".")
		byLayer[layer] += row.SelfS
	}
	for _, layer := range budgetLayers {
		r.Layers["budget."+layer+"_frac"] = metric{byLayer[layer] / traced, "frac"}
	}
	r.Layers["budget.residual_frac"] = metric{residual / traced, "frac"}
	r.Layers["budget.traced_s"] = metric{traced, "s"}
	r.Layers["host.l1_ns"] = metric{l1, "ns"}
	r.Layers["host.llc_ns"] = metric{llc, "ns"}
	r.Layers["host.dram_ns"] = metric{dram, "ns"}
	// The traced pass differs from the untraced one by more than its spans
	// (a hand-driven loop, a serial sweep), so the recorder's own cost is
	// calibrated: spans recorded x the measured price of one span.
	r.Layers["bench.trace_overhead_frac"] = metric{float64(timedSpans) * spanNS / 1e9 / traced, "frac"}

	if spanDir != "" {
		if err := tr.write(spanDir); err != nil {
			return r, err
		}
	}
	return r, nil
}
