package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"searchmem/internal/workload"
)

// This file is the deterministic parallel sweep engine (DESIGN.md §15).
//
// A sweep evaluates one configuration ("point") per index over a memoized
// workload recording. Points are independent cache simulations, so they fan
// out across worker goroutines; determinism is preserved because
//
//   - results land in a slot-per-index slice (collection order never depends
//     on scheduling), and
//   - every converted sweep drives its shared runner through a Replayer with
//     a uniform key set per group (or pre-records heterogeneous keys via
//     Replayer.Record before fanning out), so recording order — the only
//     stateful part — is identical to the serial engine's.
//
// With Options.Parallel off, runPoints degenerates to a plain serial loop
// over the same point function, byte-identical by construction.

// sweepWorkers picks the worker count for an n-point sweep. Serial mode and
// degenerate sweeps get 1. Parallel mode uses GOMAXPROCS but never fewer
// than 2 workers, so the concurrent paths are exercised (and race-checked)
// even on single-core hosts; maxWorkers > 0 caps the fan-out for
// memory-heavy sweeps that build fresh workloads per point.
func (c *Context) sweepWorkers(n, maxWorkers int) int {
	if !c.Opts.Parallel || n <= 1 {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	if maxWorkers > 0 && w > maxWorkers {
		w = maxWorkers
	}
	if w > n {
		w = n
	}
	return w
}

// runPoints evaluates point(0..n-1) and returns the results in index order.
// Under Options.Parallel the points run on sweepWorkers(n, maxWorkers)
// goroutines with work-stealing over an atomic counter; otherwise they run
// in a serial loop. A panicking point does not wedge the sweep: workers
// capture per-index panics and the lowest-index one is re-raised after all
// workers finish, so failure behavior is deterministic too.
func runPoints[T any](c *Context, maxWorkers, n int, point func(i int) T) []T {
	out := make([]T, n)
	workers := c.sweepWorkers(n, maxWorkers)
	if workers <= 1 {
		for k := 0; k < n; k++ {
			i := k
			if c.reversePoints {
				i = n - 1 - k
			}
			out[i] = point(i)
		}
		return out
	}

	// Workers collect results (and panics) into worker-local slices merged
	// after the barrier. Storing straight into out[i] from every worker
	// false-shares cache lines whenever T is small — adjacent indices live
	// on one line, and the work-stealing counter hands adjacent indices to
	// different workers — which showed up as parallel sweeps barely pacing
	// their serial equivalents. Collection order still never affects the
	// result: each value lands in its own index slot at merge time.
	type indexed struct {
		i int
		v T
	}
	type failure struct {
		i int
		r any
	}
	vals := make([][]indexed, workers)
	fails := make([][]failure, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var locals []indexed
			var panics []failure
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics = append(panics, failure{i: i, r: r})
						}
					}()
					locals = append(locals, indexed{i: i, v: point(i)})
				}()
			}
			vals[w], fails[w] = locals, panics
		}(w)
	}
	wg.Wait()
	worst := failure{i: -1}
	for _, fs := range fails {
		for _, f := range fs {
			if worst.i < 0 || f.i < worst.i {
				worst = f
			}
		}
	}
	if worst.i >= 0 {
		panic(fmt.Sprintf("sweep point %d: %v", worst.i, worst.r))
	}
	for _, vs := range vals {
		for _, e := range vs {
			out[e.i] = e.v
		}
	}
	return out
}

// runLegs runs the independent legs of one experiment side by side: as points
// of runPoints, so with Options.Parallel off they run one after another in
// the order given, and a panicking leg is re-raised after the others finish.
// Legs may share a fan-out only if every Replayer is recorded on by at most
// one leg, or every key they replay was recorded before the fan-out
// (DESIGN.md §15): recording order is the only state a leg can leak into
// another. Each leg writes its results to variables no other leg touches.
func runLegs(c *Context, legs ...func()) {
	runPoints(c, 0, len(legs), func(i int) struct{} {
		legs[i]()
		return struct{}{}
	})
}

// measureMultiSharded evaluates one MeasureConfig per index through
// workload.MeasureMulti, sharding the list into contiguous groups across
// the sweep workers. Each group simulates all its hierarchies in a single
// pass over the shared recording — decoded once per batch, not once per
// configuration — and groups replay concurrently under Options.Parallel.
// The replay keys (all configs of a MeasureMulti call share them) are
// pre-recorded serially, so recording order matches the serial engine and
// results are byte-identical for any worker count.
func measureMultiSharded(c *Context, r *workload.Replayer, mcs []workload.MeasureConfig) []workload.Metrics {
	n := len(mcs)
	if n == 0 {
		return nil
	}
	workload.PreRecord(r, mcs[0])
	workers := c.sweepWorkers(n, 0)
	if workers <= 1 {
		return workload.MeasureMulti(r, mcs)
	}
	parts := runPoints(c, 0, workers, func(w int) []workload.Metrics {
		return workload.MeasureMulti(r, mcs[w*n/workers:(w+1)*n/workers])
	})
	out := make([]workload.Metrics, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
