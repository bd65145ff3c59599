package workload

import (
	"cmp"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"searchmem/internal/det"
	"searchmem/internal/trace"
)

// Replayer wraps a Runner and memoizes its event streams: the first Run for
// a given (threads, budget, seed) key executes the inner runner once and
// records the full interleaved access and branch streams into an immutable
// trace.Recording; every later Run with the same key replays the recording
// read-only, window by window through a trace.Cursor (the one access
// transport). This is the paper's own methodology made explicit — one trace
// capture, many simulator replays — and is what lets the parallel sweep
// engine fan dozens of cache configurations across goroutines without
// touching the stateful workload (SearchRunner sessions and engine caches
// are not concurrent-safe).
//
// Recordings are stored flat (trace.Shared, 16 B/access) by default, or
// block-compressed (trace.Compressed, delta+varint, ~2-4 B/access, with
// optional spill-to-disk of finished blocks) when SetStore enables
// compression. Replayed streams are identical either way — only the storage
// transport changes (see TestReplayerCompressedIdentical).
//
// Concurrency and determinism contract:
//   - Recording is serialized under a mutex; the inner runner only ever
//     executes single-threaded.
//   - Replays are read-only and may run concurrently from any number of
//     goroutines (compressed replays decode into per-cursor windows; spill
//     reads are offset-addressed).
//   - The inner runner's state evolves with each recording, so the trace a
//     key maps to depends on the order in which *distinct* keys are first
//     requested. Concurrent sweep points must therefore either request an
//     identical key sequence (every converted sweep does: same warmup key,
//     then same measure key) or pre-record their keys in a deterministic
//     order via Record before fanning out. See DESIGN.md §15.
//
// Recorded traces live until the Replayer is garbage-collected; there is
// deliberately no eviction, because re-recording an evicted key would
// observe different inner-runner state and break replay determinism.
type Replayer struct {
	inner Runner

	mu     sync.Mutex
	runs   map[runKey]*recordedRun
	store  StoreConfig
	spills []*os.File

	// branches memoizes predictor passes over the recordings (branch.go);
	// branchPasses counts the passes actually run (test hook).
	branches     map[branchKey]*branchMemo
	branchPasses atomic.Int64
}

// StoreConfig selects how a Replayer stores its recordings.
type StoreConfig struct {
	// Compress stores recordings block-compressed (trace.Compressed)
	// instead of flat (trace.Shared). Replay output is identical; decode
	// happens block-by-block into a reused window, so replay RSS no longer
	// scales with trace length.
	Compress bool
	// BlockLen is the accesses-per-block geometry (0 = trace.DefaultBlockLen).
	BlockLen int
	// SpillDir, when non-empty, writes finished blocks to an unlinked
	// temporary file in this directory as they are sealed, so even the
	// recording phase holds only one encoding block in memory. Empty keeps
	// compressed blocks in RAM (still ~4-8x smaller than flat). Ignored
	// unless Compress is set.
	SpillDir string
}

// runKey identifies one memoized recording.
type runKey struct {
	threads int
	budget  int64
	seed    uint64
}

// recordedRun is one immutable captured execution.
type recordedRun struct {
	store    trace.Recording
	branches []recordedBranch
	stats    Stats

	// spare caches one replay cursor between replays. Sweeps replay the
	// same recording thousands of times; for compressed storage a fresh
	// cursor re-grows its decode window and read buffer every time, so
	// reuse turns per-replay allocation into one-time warmup. A single
	// slot suffices: concurrent replays beyond the first simply allocate
	// a fresh cursor, and Rewind restores identical decode state.
	spare atomic.Pointer[cursorCell]
}

// cursorCell wraps a cursor so the atomic slot holds one pointer.
type cursorCell struct{ cur trace.Cursor }

// acquireCursor returns a rewound cursor over the recording, reusing the
// cached one when free.
func (rec *recordedRun) acquireCursor() *cursorCell {
	cell := rec.spare.Swap(nil)
	if cell == nil {
		return &cursorCell{cur: rec.store.Cursor()}
	}
	cell.cur.Rewind()
	return cell
}

// releaseCursor parks the cursor for the next replay.
func (rec *recordedRun) releaseCursor(cell *cursorCell) {
	rec.spare.Store(cell)
}

// recordedBranch is a branch event anchored to its position in the access
// stream: it replays after `pos` accesses have been emitted, preserving the
// recorded interleaving of the two event streams.
type recordedBranch struct {
	pc     uint64
	pos    int64
	thread uint8
	taken  bool
}

// NewReplayer wraps inner with a memoizing replay layer (flat storage; call
// SetStore before the first recording to compress).
func NewReplayer(inner Runner) *Replayer {
	return &Replayer{inner: inner, runs: make(map[runKey]*recordedRun), branches: make(map[branchKey]*branchMemo)}
}

// SetStore selects the recording storage. It must be called before the
// first recording (changing representation mid-flight would make identical
// keys replay through different transports) and panics otherwise.
func (r *Replayer) SetStore(cfg StoreConfig) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.runs) > 0 {
		panic("workload: SetStore after recordings exist")
	}
	r.store = cfg
}

// Close releases spill files opened for compressed recordings. The files
// are unlinked at creation, so this only drops file descriptors early; a
// collected Replayer releases them via the runtime finalizer anyway.
func (r *Replayer) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, f := range r.spills {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.spills = nil
	return first
}

// Name implements Runner.
func (r *Replayer) Name() string { return r.inner.Name() }

// MemOverlap implements Runner.
func (r *Replayer) MemOverlap() float64 { return r.inner.MemOverlap() }

// Run implements Runner: it records on first use of a key and replays the
// memoized streams into s on every call. Replays of an already-recorded key
// are safe to issue concurrently.
func (r *Replayer) Run(threads int, instrBudget int64, seed uint64, s Sinks) Stats {
	rec := r.record(runKey{threads: threads, budget: instrBudget, seed: seed})
	rec.replay(s)
	return rec.stats
}

// Record ensures the given key is recorded without replaying it. Parallel
// groups whose points request *different* keys call this first, in the same
// order the serial engine would, so recording order stays deterministic.
func (r *Replayer) Record(threads int, instrBudget int64, seed uint64) {
	r.record(runKey{threads: threads, budget: instrBudget, seed: seed})
}

// Trace returns the memoized recording and run stats for a key, recording
// it first if needed. The recording is immutable; consumers take
// independent Cursors over it.
func (r *Replayer) Trace(threads int, instrBudget int64, seed uint64) (trace.Recording, Stats) {
	rec := r.record(runKey{threads: threads, budget: instrBudget, seed: seed})
	return rec.store, rec.stats
}

// StoreStats summarizes recorded trace storage across all keys.
type StoreStats struct {
	// Recordings is the number of memoized keys.
	Recordings int
	// Accesses is the total recorded access count.
	Accesses int64
	// StoredBytes is what the recordings occupy (flat in-memory bytes, or
	// encoded compressed bytes — see SpilledBytes for the on-disk subset).
	StoredBytes int64
	// SpilledBytes is the subset of StoredBytes resident in spill files
	// rather than RAM.
	SpilledBytes int64
}

// StoreStats reports the current recording storage footprint. Keys are
// walked in sorted order so the sums accumulate deterministically (the
// values are commutative, but the repo's maporder invariant is blanket).
func (r *Replayer) StoreStats() StoreStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := det.SortedKeysFunc(r.runs, func(a, b runKey) int {
		if c := cmp.Compare(a.threads, b.threads); c != 0 {
			return c
		}
		if c := cmp.Compare(a.budget, b.budget); c != 0 {
			return c
		}
		return cmp.Compare(a.seed, b.seed)
	})
	st := StoreStats{Recordings: len(r.runs)}
	for _, k := range keys {
		rec := r.runs[k]
		st.Accesses += int64(rec.store.Len())
		st.StoredBytes += rec.store.StoredBytes()
		if c, ok := rec.store.(*trace.Compressed); ok && c.Spilled() {
			st.SpilledBytes += c.StoredBytes()
		}
	}
	return st
}

// record returns the memoized run for key, executing the inner runner under
// the lock on first request. Double-checked callers all block until the
// recording completes, then share the immutable result.
func (r *Replayer) record(key runKey) *recordedRun {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec, ok := r.runs[key]; ok {
		return rec
	}
	var branches []recordedBranch
	var store trace.Recording
	var st Stats
	if r.store.Compress {
		var spill trace.SpillFile
		if r.store.SpillDir != "" {
			f, err := os.CreateTemp(r.store.SpillDir, "searchmem-trace-*.blk")
			if err != nil {
				panic(fmt.Sprintf("workload: creating trace spill file: %v", err))
			}
			// Unlink immediately: the blocks live exactly as long as the
			// open descriptor, so crashed or finished runs leave no litter.
			os.Remove(f.Name())
			r.spills = append(r.spills, f)
			spill = f
		}
		bw := trace.NewBlockWriter(r.store.BlockLen, spill)
		var werr error
		st = r.inner.Run(key.threads, key.budget, key.seed, Sinks{
			Access: func(a trace.Access) {
				if err := bw.Add(a); err != nil && werr == nil {
					werr = err
				}
			},
			Branch: func(thread uint8, pc uint64, taken bool) {
				branches = append(branches, recordedBranch{pc: pc, pos: int64(bw.Count()), thread: thread, taken: taken})
			},
		})
		c, err := bw.Finish()
		if werr != nil {
			err = werr
		}
		if err != nil {
			// Runner access streams are always representable (the block
			// codec accepts any Thread), so this is spill I/O failing —
			// an environmental error the Runner interface cannot return.
			panic(fmt.Sprintf("workload: recording %s: %v", r.inner.Name(), err))
		}
		store = c
	} else {
		var accesses []trace.Access
		st = r.inner.Run(key.threads, key.budget, key.seed, Sinks{
			Access: func(a trace.Access) { accesses = append(accesses, a) },
			Branch: func(thread uint8, pc uint64, taken bool) {
				branches = append(branches, recordedBranch{pc: pc, pos: int64(len(accesses)), thread: thread, taken: taken})
			},
		})
		store = trace.NewShared(accesses)
	}
	rec := &recordedRun{store: store, branches: branches, stats: st}
	r.runs[key] = rec
	return rec
}

// replay emits the recorded streams into s in their captured interleaving.
// It only reads immutable state, so concurrent replays need no locking.
// There is one transport: read-only windows of the recording (zero-copy for
// flat storage, a reused decode window for compressed), split exactly at
// recorded branch anchors so a branch fires before the access it was
// recorded ahead of, and capped at trace.DefaultBatchSize so consumers see
// bounded batches regardless of the store's window geometry. Consumers
// without an AccessBatch sink get each window one access at a time.
//
//lint:hot
func (rec *recordedRun) replay(s Sinks) {
	cell := rec.acquireCursor()
	defer rec.releaseCursor(cell)
	cur := cell.cur
	n := rec.store.Len()
	pos, bi := 0, 0
	var win []trace.Access
	winStart := 0
	for {
		// Branches anchored at the current access position fire first.
		for bi < len(rec.branches) && rec.branches[bi].pos == int64(pos) {
			b := rec.branches[bi]
			if s.Branch != nil {
				//lint:ignore hotalloc consumer-provided sink: the replay transport is zero-alloc, the sink's own cost belongs to the consumer (simulator sinks are //lint:hot-checked)
				s.Branch(b.thread, b.pc, b.taken)
			}
			bi++
		}
		if pos >= n {
			return
		}
		if winStart+len(win) <= pos {
			win = cur.NextBatch()
			winStart = pos
			if len(win) == 0 {
				rec.checkDrained(cur, pos)
				return
			}
		}
		// Emit accesses up to the next branch anchor (or the window end),
		// in sub-windows of at most DefaultBatchSize.
		end := winStart + len(win)
		if bi < len(rec.branches) && int(rec.branches[bi].pos) < end {
			end = int(rec.branches[bi].pos)
		}
		for pos < end {
			hi := min(pos+trace.DefaultBatchSize, end)
			sub := win[pos-winStart : hi-winStart : hi-winStart]
			if s.AccessBatch != nil {
				//lint:ignore hotalloc consumer-provided sink: the replay transport is zero-alloc, the sink's own cost belongs to the consumer (simulator sinks are //lint:hot-checked)
				s.AccessBatch(sub)
			} else if s.Access != nil {
				for _, a := range sub {
					//lint:ignore hotalloc consumer-provided sink: the replay transport is zero-alloc, the sink's own cost belongs to the consumer (simulator sinks are //lint:hot-checked)
					s.Access(a)
				}
			}
			pos = hi
		}
	}
}

// checkDrained panics if a cursor ended before the recording's full length:
// recordings are immutable, so a short replay can only mean storage
// corruption (e.g. an unreadable spill block), which must not silently
// truncate an experiment.
func (rec *recordedRun) checkDrained(cur trace.Cursor, emitted int) {
	if emitted == rec.store.Len() {
		return
	}
	if ce, ok := cur.(interface{ Err() error }); ok && ce.Err() != nil {
		panic(fmt.Sprintf("workload: replay truncated at access %d of %d: %v", emitted, rec.store.Len(), ce.Err()))
	}
	panic(fmt.Sprintf("workload: replay truncated at access %d of %d", emitted, rec.store.Len()))
}
