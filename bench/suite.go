package main

import (
	"searchmem/internal/experiments"
)

// suiteIDs is the frozen list of the 33 experiments registered when the
// benchmark was defined, in registry order: the equivalent of
// `searchsim -fast all`. It is frozen so that the work stays the same when a
// later change registers another experiment; an id that disappears fails a
// check.
var suiteIDs = []string{
	"explore", "missclass", "bandwidth", "slo", "degraded",
	"fig13", "fig14", "fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5",
	"fig6a", "fig6b", "fig6c", "fig7a", "fig7b", "fig8a", "fig8b", "fig9",
	"fig10", "fig11", "figF1", "figF2", "fleetprof", "figP1", "figP2",
	"splitl2", "table1", "table2", "figT1", "figT2",
}

// suiteBench runs the whole stack as users run it: synthesis, recording,
// sweeps through the parallel engine, every model, rendering. All of it is
// at the repo's "fast" scale, which the repo itself labels uncalibrated:
// the model is unvalidated at this scale and the benchmark gives no
// error-against-paper figure (EXPERIMENTS.md has the calibrated comparison).
type suiteBench struct {
	ids      []string
	opts     experiments.Options
	ctxs     []*experiments.Context
	parallel string // digest of the last untraced (parallel) pass
}

func newSuiteBench(smoke bool) *suiteBench {
	b := &suiteBench{ids: suiteIDs, opts: experiments.Fast()}
	if smoke {
		b.ids = []string{"table2", "slo", "missclass"}
		b.opts.Shrink, b.opts.Budget = 64, 100_000
	}
	return b
}

// setup builds one context per pass (a context memoizes everything it
// measures, so a pass needs a fresh one) and the two search indexes most
// experiments share. Recording stays in the timed phase: which keys are
// recorded is decided by the experiments themselves.
func (b *suiteBench) setup(seed uint64, passes int, tr *tracer) {
	b.opts.Seed = seed
	for i := 0; i < passes; i++ {
		ctx := experiments.NewContext(b.opts)
		s := tr.begin("search.build")
		ctx.Leaf()
		tr.end(s)
		s = tr.begin("search.build")
		ctx.Sweep()
		tr.end(s)
		b.ctxs = append(b.ctxs, ctx)
	}
}

// run renders every experiment on ctx and digests the renders.
func (b *suiteBench) run(ctx *experiments.Context, tr *tracer, ck *checks) (int64, string) {
	d := newDigest()
	for _, id := range b.ids {
		e, ok := experiments.ByID(id)
		ck.that(ok, "paper_suite: experiment %q is no longer registered", id)
		if !ok {
			continue
		}
		s := tr.begin("experiments." + id)
		res, err := e.Run(ctx)
		tr.end(s)
		ck.that(err == nil, "paper_suite: %s failed: %v", id, err)
		if err != nil {
			continue
		}
		s = tr.begin("experiments.render")
		out := res.Render()
		tr.end(s)
		ck.that(out != "", "paper_suite: %s rendered nothing", id)
		d.add("=== %s\n%s\n", id, out)
	}
	return int64(len(b.ids)), d.sum()
}

func (b *suiteBench) pass(i int, ck *checks) (int64, string) {
	ops, digest := b.run(b.ctxs[i], nil, ck)
	b.parallel = digest
	return ops, digest
}

// tracedPass runs the suite serially, so an experiment's span is its own
// time and not its share of two workers, and checks the law the parallel
// engine is built on: serial renders equal parallel renders.
func (b *suiteBench) tracedPass(i int, tr *tracer, ck *checks) int64 {
	ctx := b.ctxs[i]
	ctx.Opts.Parallel = false
	ops, serial := b.run(ctx, tr, ck)
	ck.that(serial == b.parallel, "paper_suite: serial digest %s differs from parallel digest %s", serial, b.parallel)
	return ops
}

func (b *suiteBench) layers(_ *tracer, sum traceSummary) map[string]metric {
	out := map[string]metric{
		"experiments.render_s":         {sum.spans["experiments.render"].SelfS, "s"},
		"experiments.residual_s":       {sum.spans["residual.timed"].SelfS, "s"},
		"experiments.parallel_speedup": {frac(sum.tracedS, sum.untracedS), "x"},
	}
	for _, id := range b.ids {
		out["experiments."+id+"_s"] = metric{sum.spans["experiments."+id].SelfS, "s"}
	}
	return out
}
