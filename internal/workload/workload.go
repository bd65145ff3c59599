// Package workload composes the substrates (search engine, code generator,
// instrumented memory) into runnable workload profiles: the production
// search services S1/S2/S3 in their leaf and root roles, and the
// comparison benchmarks of Table I (four SPEC CPU2006 profiles and the
// CloudSuite Web Search profile).
//
// A profile builds once (expensive: corpus generation and indexing) and can
// then be run many times against different cache hierarchies, predictors,
// or analyzers via Sinks.
package workload

import "searchmem/internal/trace"

// Sinks receives the event streams a run produces. Any field may be nil.
type Sinks struct {
	// Access receives every memory access, interleaved across threads.
	Access func(trace.Access)
	// AccessBatch, when non-nil, lets a batching-aware runner deliver the
	// access stream as read-only slices instead of one Access call per
	// element. Each access is delivered exactly once, through one sink or
	// the other: a runner that batches ignores Access, and a runner unaware
	// of batching ignores AccessBatch (consumers wanting either transport
	// set both). Slices follow the trace.BatchStream contract — they may be
	// zero-copy windows of a shared recording, must not be mutated, and are
	// only valid until the sink returns. The relative order of accesses and
	// Branch events is preserved exactly: with a Branch sink set, batch
	// boundaries are split at every recorded branch position. Where the
	// boundaries fall is otherwise unspecified, so a consumer's result must
	// not depend on it.
	AccessBatch func(batch []trace.Access)
	// Branch receives every resolved conditional branch with its thread.
	Branch func(thread uint8, pc uint64, taken bool)
}

// Stats summarizes one run.
type Stats struct {
	// Instructions retired across all threads.
	Instructions int64
	// Branches resolved across all threads.
	Branches int64
	// Accesses emitted (memory references).
	Accesses int64
	// Queries executed and the subset served by the query cache
	// (search profiles only).
	Queries, CacheHits int64
	// PostingsDecoded counts index postings scanned (search only).
	PostingsDecoded int64
}

// Runner is a built workload instance that can be executed repeatedly.
type Runner interface {
	// Name identifies the profile.
	Name() string
	// Run executes approximately instrBudget instructions across threads
	// hardware threads, emitting events into s. seed varies the query or
	// input stream between runs; the same seed reproduces the same run
	// against a fresh runner.
	Run(threads int, instrBudget int64, seed uint64, s Sinks) Stats
	// MemOverlap returns the workload's memory-level-parallelism blocking
	// factor for the core model, or 0 to use the platform default.
	// Pointer-chasing workloads (mcf) serialize misses; search's modest
	// MLP uses the platform's calibrated value.
	MemOverlap() float64
}

// interleaver merges per-thread access buffers round-robin in fixed bursts,
// modeling fine-grained concurrent execution of independent threads. refill
// is called when a thread's buffer drains, with that drained buffer emptied
// for reuse — so each thread's accesses are captured once, into one buffer
// that lives for the run, and never copied; it returns false when that
// thread has no more work.
type interleaver struct {
	burst   int
	buffers [][]trace.Access
	pos     []int
	done    []bool
	emit    func(trace.Access)
	refill  func(thread int, buf []trace.Access) ([]trace.Access, bool)
}

func newInterleaver(threads, burst int, emit func(trace.Access), refill func(int, []trace.Access) ([]trace.Access, bool)) *interleaver {
	return &interleaver{
		burst:   burst,
		buffers: make([][]trace.Access, threads),
		pos:     make([]int, threads),
		done:    make([]bool, threads),
		emit:    emit,
		refill:  refill,
	}
}

// run drains all threads' work.
func (iv *interleaver) run() int64 {
	var emitted int64
	live := len(iv.buffers)
	for live > 0 {
		for t := range iv.buffers {
			if iv.done[t] {
				continue
			}
			for b := 0; b < iv.burst; {
				if iv.pos[t] >= len(iv.buffers[t]) {
					buf, ok := iv.refill(t, iv.buffers[t][:0])
					if !ok {
						iv.done[t] = true
						live--
						break
					}
					iv.buffers[t] = buf
					iv.pos[t] = 0
					continue
				}
				if iv.emit != nil {
					iv.emit(iv.buffers[t][iv.pos[t]])
				}
				iv.pos[t]++
				b++
				emitted++
			}
		}
	}
	return emitted
}
