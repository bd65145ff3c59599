package experiments

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"searchmem/internal/det"
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

// measureMultiSharded evaluates one MeasureConfig per index, as
// workload.MeasureMulti would, across the sweep workers. The configurations
// fall into upper groups (workload.StreamGroups: same L1–L3, differing only
// in L4, memory model and level predictor). A group is served from the
// context's retained post-L3 stream of its (recording, upper) when it can
// be — no member needs the live run — and either the stream exists or the
// group has several tails to share it: the stream is recorded once (one
// L1–L3 pass), then the workers take the group's tails one at a time, each
// replaying the stream alone. Every other configuration runs live, sharded
// contiguously into MeasureMulti passes (one decode per shard, one L1–L3
// pass per upper in it). Missing streams record while the live shards run.
// The replay keys (all configs share them) are pre-recorded serially, so
// recording order matches the serial engine and results are byte-identical
// for any worker count or schedule, retained stream or not.
func measureMultiSharded(c *Context, r *workload.Replayer, mcs []workload.MeasureConfig) []workload.Metrics {
	n := len(mcs)
	if n == 0 {
		return nil
	}
	workload.PreRecord(r, mcs[0])
	out := make([]workload.Metrics, n)
	var live []int
	type served struct {
		g   workload.StreamGroup
		key streamKey
		rs  *retainedStream
	}
	var streamed []served
	for _, g := range workload.StreamGroups(mcs) {
		key := streamKey{rep: r, key: g.Key}
		if g.Live || (len(g.Members) < 2 && !c.streams.has(key)) {
			live = append(live, g.Members...)
			continue
		}
		streamed = append(streamed, served{g: g, key: key})
	}
	pick := func(idx []int) []workload.MeasureConfig {
		sub := make([]workload.MeasureConfig, len(idx))
		for k, i := range idx {
			sub[k] = mcs[i]
		}
		return sub
	}

	// Phase 1: the live shards, and every stream a served group needs.
	shards := 0
	if len(live) > 0 {
		shards = c.sweepWorkers(len(live), 0)
	}
	runPoints(c, 0, shards+len(streamed), func(j int) struct{} {
		if j < shards {
			idx := live[j*len(live)/shards : (j+1)*len(live)/shards]
			for k, m := range workload.MeasureMulti(r, pick(idx)) {
				out[idx[k]] = m
			}
			return struct{}{}
		}
		sv := &streamed[j-shards]
		sv.rs = c.stream(sv.key, func() *workload.Stream { return workload.RecordStream(r, pick(sv.g.Members)) })
		sv.rs.tails.Add(int64(len(sv.g.Members)))
		return struct{}{}
	})

	// Phase 2: the served groups' tails, one point each: a tail replays its
	// stream alone, so the workers steal tails one at a time.
	type tail struct {
		rs *retainedStream
		i  int
	}
	var tails []tail
	for _, sv := range streamed {
		for _, i := range sv.g.Members {
			tails = append(tails, tail{rs: sv.rs, i: i})
		}
	}
	runPoints(c, 0, len(tails), func(j int) struct{} {
		t := tails[j]
		out[t.i] = t.rs.s.Measure(r, mcs[t.i:t.i+1])[0]
		return struct{}{}
	})
	return out
}

// streamKey names one retained post-L3 stream: a recording's Replayer and
// the stream's key on it.
type streamKey struct {
	rep *workload.Replayer
	key workload.StreamKey
}

// retainedStream is one memoized post-L3 stream and how much it was used.
type retainedStream struct {
	rep         *workload.Replayer
	s           *workload.Stream
	tails, hits atomic.Int64
}

// stream returns the retained stream for key, recording it on first use;
// a call that finds it recorded (or being recorded) counts a memo hit.
func (c *Context) stream(key streamKey, record func() *workload.Stream) *retainedStream {
	rs, fresh := c.streams.get(key, func() *retainedStream {
		c.Opts.logf("recording post-L3 stream of %s: %v", key.rep.Name(), key.key)
		return &retainedStream{rep: key.rep, s: record()}
	})
	if !fresh {
		rs.hits.Add(1)
	}
	return rs
}

// StreamReport describes one retained post-L3 stream.
type StreamReport struct {
	// Runner is the recording's runner-cache key; Upper labels the upper
	// and the measured run.
	Runner, Upper string
	// Events is the post-L3 events and L1-miss records held, in Bytes
	// encoded bytes.
	Events int
	Bytes  int64
	// Tails is how many configurations were measured from the stream, and
	// Hits how many lookups found it already recorded.
	Tails, Hits int64
}

// PostL3Streams reports every retained post-L3 stream, sorted by runner and
// label. Each is one L1–L3 pass that every tail it served did not repeat.
func (c *Context) PostL3Streams() []StreamReport {
	c.mu.Lock()
	names := make(map[*workload.Replayer]string, len(c.runners))
	for _, key := range det.SortedKeys(c.runners) {
		names[c.runners[key]] = key
	}
	c.mu.Unlock()
	var out []StreamReport
	for _, rs := range c.streams.values() {
		out = append(out, StreamReport{
			Runner: names[rs.rep], Upper: rs.s.Key().String(),
			Events: rs.s.Events(), Bytes: rs.s.Bytes(),
			Tails: rs.tails.Load(), Hits: rs.hits.Load(),
		})
	}
	slices.SortFunc(out, func(a, b StreamReport) int {
		return cmp.Or(cmp.Compare(a.Runner, b.Runner), cmp.Compare(a.Upper, b.Upper))
	})
	return out
}
