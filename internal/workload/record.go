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
// Accesses are stored flat (trace.Shared, 16 B/access) by default, or
// block-compressed (trace.Compressed, delta+varint, ~2-4 B/access, with
// optional spill-to-disk of finished blocks) when SetStore enables
// compression. Replayed streams are identical either way — only the storage
// transport changes (see TestReplayerCompressedIdentical). The branch stream
// is kept beside either store as a resident branchLog: delta+varint chunks
// (~3 B/branch, branchlog.go) read through a cursor that decodes one chunk
// at a time.
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
	// happens block-by-block into two reused windows, so replay RSS no longer
	// scales with trace length.
	Compress bool
	// SpillDir, when non-empty, writes finished blocks to an unlinked
	// temporary file in this directory as they are sealed, so even the
	// recording phase holds only one encoding block in memory. Empty keeps
	// compressed blocks in RAM (still ~4-8x smaller than flat). Ignored
	// unless Compress is set.
	SpillDir string
	// blockLen is the accesses-per-block geometry: 0 (trace.DefaultBlockLen)
	// in shipped code, varied by tests to reach the block boundaries.
	blockLen int
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
	branches branchLog
	stats    Stats

	// spare caches one replay's cursors between replays. Sweeps replay the
	// same recording thousands of times; a fresh compressed-store cursor
	// re-grows its decode window and read buffer every time, and a fresh
	// branch cursor its window, so reuse turns per-replay allocation into
	// one-time warmup. A single slot suffices: concurrent replays beyond
	// the first simply allocate fresh cursors, and rewinding restores
	// identical decode state.
	spare atomic.Pointer[cursorCell]
}

// cursorCell wraps a replay's two cursors — the store's and the branch
// log's — so the atomic slot holds one pointer.
type cursorCell struct {
	cur trace.Cursor
	br  branchCursor
}

// acquireCursor returns rewound cursors over the recording, reusing the
// cached ones when free.
func (rec *recordedRun) acquireCursor() *cursorCell {
	cell := rec.spare.Swap(nil)
	if cell == nil {
		return &cursorCell{cur: rec.store.Cursor(), br: branchCursor{log: &rec.branches}}
	}
	cell.cur.Rewind()
	cell.br.next = 0
	return cell
}

// releaseCursor parks the cursor for the next replay.
func (rec *recordedRun) releaseCursor(cell *cursorCell) {
	rec.spare.Store(cell)
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
	// Branches is the total recorded branch count, and BranchBytes what the
	// branch logs' encoding occupies. It is not part of StoredBytes and
	// stays in RAM under every store.
	Branches    int64
	BranchBytes int64
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
		st.Branches += int64(rec.branches.n)
		st.BranchBytes += rec.branches.size
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
	// One capture body for both stores: w takes the accesses, finish seals
	// the store.
	var w interface {
		Add(trace.Access) error
		Count() int
	}
	var finish func() (trace.Recording, error)
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
		bw := trace.NewBlockWriter(r.store.blockLen, spill)
		w, finish = bw, func() (trace.Recording, error) { return bw.Finish() }
	} else {
		sw := trace.NewSharedWriter()
		w, finish = sw, func() (trace.Recording, error) { return sw.Finish(), nil }
	}
	rec := &recordedRun{}
	var bw branchWriter
	var werr error
	rec.stats = r.inner.Run(key.threads, key.budget, key.seed, Sinks{
		Access: func(a trace.Access) {
			if err := w.Add(a); err != nil && werr == nil {
				werr = err
			}
		},
		Branch: func(thread uint8, pc uint64, taken bool) {
			bw.add(w.Count(), thread, pc, taken)
		},
	})
	store, err := finish()
	if werr != nil {
		err = werr
	}
	if err != nil {
		// Runner access streams are always representable (the block codec
		// accepts any Thread), so this is spill I/O failing — an
		// environmental error the Runner interface cannot return.
		panic(fmt.Sprintf("workload: recording %s: %v", r.inner.Name(), err))
	}
	rec.store, rec.branches = store, bw.finish()
	r.runs[key] = rec
	return rec
}

// replay emits the recorded streams into s in their captured interleaving.
// It only reads immutable state, so concurrent replays need no locking.
// There is one transport: read-only windows of the recording (zero-copy for
// flat storage, reused decode windows for compressed), capped at
// trace.DefaultBatchSize so consumers see bounded batches regardless of the
// store's window geometry. With a Branch sink the windows are split exactly
// at recorded branch anchors, so a branch fires before the access it was
// recorded ahead of; without one nobody can observe the interleaving, the
// branch log is not read and the store's windows go out whole (consumers
// are batch-split invariant — see Sinks.AccessBatch). Consumers without an
// AccessBatch sink get each window one access at a time.
func (rec *recordedRun) replay(s Sinks) {
	cell := rec.acquireCursor()
	defer rec.releaseCursor(cell)
	cur := cell.cur
	pos := 0
	if s.Branch == nil {
		for {
			win := cur.NextBatch()
			if len(win) == 0 {
				rec.checkDrained(cur, pos)
				return
			}
			s.deliver(win)
			pos += len(win)
		}
	}
	// chunk is the unread rest of the branch log's current decoded chunk, held
	// in a local so an anchor test costs one load; it is empty only once the
	// whole log has fired.
	var chunk []recordedBranch
	n := rec.store.Len()
	var win []trace.Access
	winStart := 0
	for {
		// Branches anchored at the current access position fire first.
		for {
			if len(chunk) == 0 {
				if chunk = cell.br.nextChunk(); len(chunk) == 0 {
					break
				}
			}
			b := chunk[0]
			if b.pos() != pos {
				break
			}
			s.Branch(b.thread(), b.pc, b.taken())
			chunk = chunk[1:]
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
		// Emit accesses up to the next branch anchor (or the window end).
		end := winStart + len(win)
		if len(chunk) > 0 && chunk[0].pos() < end {
			end = chunk[0].pos()
		}
		s.deliver(win[pos-winStart : end-winStart])
		pos = end
	}
}

// deliver hands one read-only run of accesses to the access sink in
// sub-windows of at most trace.DefaultBatchSize.
func (s *Sinks) deliver(run []trace.Access) {
	for len(run) > 0 {
		hi := min(trace.DefaultBatchSize, len(run))
		sub := run[:hi:hi]
		run = run[hi:]
		if s.AccessBatch != nil {
			s.AccessBatch(sub)
		} else if s.Access != nil {
			for _, a := range sub {
				s.Access(a)
			}
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
