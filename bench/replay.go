package main

import (
	"os"
	"path/filepath"
	"runtime"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
	"searchmem/internal/mem"
	"searchmem/internal/platform"
	"searchmem/internal/trace"
	"searchmem/internal/workload"
)

// spillDir keeps trace spill files inside the checkout (bench/out is
// ignored by git); the files are unlinked as soon as they are created.
const spillDir = "bench/out/spill"

// replayConfig fixes one replay workload: what is recorded, how it is
// stored, and the hierarchy points it is measured on.
type replayConfig struct {
	name      string
	buildSpan string // layer that builds the runner
	build     func() workload.Runner
	store     workload.StoreConfig
	threads   int // = cores; SMT off
	budget    int64
	l3Sizes   []int64 // one Measure per entry; 0 keeps PLT1's L3
	l4Size    int64
	mem       *mem.Config
}

// deepConfig is the miss-heavy workload: the S1 leaf's footprint (~17 MiB
// touched at shrink 8) against L3 sizes from 256 KiB to 8 MiB, so 15% of
// accesses leave the L1 and most of those leave the L2; below the L3 sit the
// paper's direct-mapped L4 and a frequency-threshold far tier.
func deepConfig(smoke bool) replayConfig {
	c := replayConfig{
		name:      "replay_deep",
		buildSpan: "search.build",
		build:     func() workload.Runner { return workload.S1Leaf(8).Build() },
		threads:   4,
		budget:    12_000_000,
		l3Sizes:   []int64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 3 << 20, 4 << 20, 6 << 20, 8 << 20},
		l4Size:    16 << 20,
		mem: &mem.Config{Far: &mem.FarConfig{
			NearPages: 1024, // a quarter of the touched pages
			Policy:    mem.PolicyFreqThreshold,
			EpochLen:  8192, // several placement epochs fit in one point's ~30k transactions
		}},
	}
	if smoke {
		c.build = func() workload.Runner { return workload.S1Leaf(64).Build() }
		c.budget = 150_000
		c.l3Sizes = []int64{256 << 10, 2 << 20}
	}
	return c
}

// residentConfig is the hit-path workload: perlbench lives in the L1/L2
// (99.5% L1 hits, ~0 DRAM traffic), and its trace is block-compressed and
// spilled, so every replay decodes it from a file.
func residentConfig(smoke bool) replayConfig {
	c := replayConfig{
		name:      "replay_resident",
		buildSpan: "workload.build",
		build:     func() workload.Runner { return workload.SPECPerlbench().Build() },
		store:     workload.StoreConfig{Compress: true, SpillDir: spillDir},
		threads:   1,
		budget:    12_000_000,
		l3Sizes:   make([]int64, 8), // 8 back-to-back measurements of PLT1 as it is
	}
	if smoke {
		c.budget = 150_000
		c.l3Sizes = make([]int64, 2)
	}
	return c
}

// memTxn is one captured main-memory transaction.
type memTxn struct {
	addr  uint64
	seg   trace.Segment
	write bool
}

// memCapture is the cache.MemSink of the traced pass: it queues what the
// hierarchy sends to memory so the memory model can be timed in its own
// span, in the same order, after the batch.
type memCapture struct{ txns []memTxn }

func (c *memCapture) MemRead(addr uint64, seg trace.Segment) {
	c.txns = append(c.txns, memTxn{addr: addr, seg: seg})
}

func (c *memCapture) MemWrite(addr uint64, seg trace.Segment) {
	c.txns = append(c.txns, memTxn{addr: addr, seg: seg, write: true})
}

// feed hands captured transactions to a memory model in their order.
func feed(sys *mem.System, txns []memTxn) {
	for _, x := range txns {
		if x.write {
			sys.MemWrite(x.addr, x.seg)
		} else {
			sys.MemRead(x.addr, x.seg)
		}
	}
}

// recordedBranch is one branch of a recorded run, captured once so the
// traced pass can time the predictors apart from the replay transport.
type recordedBranch struct {
	thread uint8
	b      cpu.Branch
}

// recordedKey names one of the two recordings Measure asks a Replayer for.
type recordedKey struct {
	budget   int64
	seed     uint64
	branches []recordedBranch // traced child only
}

// replayCounts sums the traced pass's work over all points.
type replayCounts struct {
	accesses, txns, branches int64
	fedTxns                  int64 // transactions handed to the memory model, warm-up included
	l1, l2, l3, l4           cache.AccessStats
	mem                      mem.Stats
	mallocs                  uint64 // heap objects the last point's measured replay loop allocated
	mallocAccesses           int64
	keptTxns                 []memTxn // the first point's measured-phase transactions, for the near-tier probe
}

type replayBench struct {
	cfg   replayConfig
	inner workload.Runner
	rep   *workload.Replayer
	// Measure replays a warm-up key (a quarter of the budget), resets the
	// statistics, then replays the measured key.
	warm, main recordedKey
	ref        []workload.Metrics // the last untraced pass, one per point
	n          replayCounts
}

func newReplayBench(cfg replayConfig) *replayBench { return &replayBench{cfg: cfg} }

func (b *replayBench) point(i int) workload.MeasureConfig {
	return workload.MeasureConfig{
		Platform: platform.PLT1(),
		Cores:    b.cfg.threads, SMTWays: 1, Threads: b.cfg.threads,
		L3Size: b.cfg.l3Sizes[i], L4Size: b.cfg.l4Size,
		Budget: b.main.budget, Seed: b.main.seed,
		Mem: b.cfg.mem,
	}
}

func (b *replayBench) setup(seed uint64, _ int, tr *tracer) {
	b.main = recordedKey{budget: b.cfg.budget, seed: seed}
	b.warm = recordedKey{budget: int64(float64(b.cfg.budget) * 0.25), seed: seed ^ 0xbeef}
	s := tr.begin(b.cfg.buildSpan)
	b.inner = b.cfg.build()
	tr.end(s)
	b.rep = workload.NewReplayer(b.inner)
	if b.cfg.store.Compress {
		if err := os.MkdirAll(filepath.FromSlash(b.cfg.store.SpillDir), 0o755); err != nil {
			panic(err)
		}
		b.rep.SetStore(b.cfg.store)
	}
	// The runner's state evolves with each recording, so Measure's order
	// (warm-up key first) is part of the input.
	for _, k := range []*recordedKey{&b.warm, &b.main} {
		s = tr.begin("workload.record")
		b.rep.Record(b.cfg.threads, k.budget, k.seed)
		tr.end(s)
	}
	if tr == nil {
		return
	}
	// The Replayer does not expose a recording's branch stream; replaying
	// it into an empty batch sink yields it.
	for _, k := range []*recordedKey{&b.warm, &b.main} {
		s = tr.begin("workload.replay")
		b.rep.Run(b.cfg.threads, k.budget, k.seed, workload.Sinks{
			AccessBatch: func([]trace.Access) {},
			Branch: func(thread uint8, pc uint64, taken bool) {
				k.branches = append(k.branches, recordedBranch{thread: thread, b: cpu.Branch{PC: pc, Taken: taken}})
			},
		})
		tr.end(s)
	}
}

func (b *replayBench) pass(_ int, _ *checks) (int64, string) {
	d := newDigest()
	var ops int64
	b.ref = b.ref[:0]
	for i := range b.cfg.l3Sizes {
		m := workload.Measure(b.rep, b.point(i))
		b.ref = append(b.ref, m)
		ops += m.Run.Accesses
		flat := m
		flat.Mem = nil // a pointer prints as its address
		d.add("%d %+v", i, flat)
		if m.Mem != nil {
			d.add(" %+v", *m.Mem)
		}
		d.add("\n")
	}
	return ops, d.sum()
}

// rig is one point's simulated machine, assembled from the layers' public
// constructors the way Measure assembles it.
type rig struct {
	h       *cache.Hierarchy
	sys     *mem.System // nil without a memory model
	capture memCapture
	preds   []*cpu.PredictorStats // one gshare per core
}

func newRig(mc workload.MeasureConfig, tr *tracer) *rig {
	r := &rig{}
	s := tr.begin("cache.new")
	var hcfg cache.HierarchyConfig
	if mc.L3Size > 0 {
		hcfg = mc.Platform.HierarchyWithL3Size(mc.Cores, mc.SMTWays, mc.L3Size)
	} else {
		hcfg = mc.Platform.Hierarchy(mc.Cores, mc.SMTWays, 0)
	}
	if mc.L4Size > 0 {
		hcfg.L4 = &cache.Config{Name: "L4", Size: mc.L4Size, BlockSize: hcfg.L3.BlockSize, Assoc: 1}
	}
	r.h = cache.NewHierarchy(hcfg)
	tr.end(s)
	if mc.Mem != nil {
		s = tr.begin("mem.new")
		r.sys = mem.NewSystem(*mc.Mem)
		tr.end(s)
		r.h.SetMemSink(&r.capture)
	}
	r.preds = make([]*cpu.PredictorStats, mc.Cores)
	for c := range r.preds {
		r.preds[c] = &cpu.PredictorStats{P: cpu.NewGshare(14)}
	}
	return r
}

// resetStats is Measure's step between warm-up and measurement: contents
// stay warm, counters restart.
func (r *rig) resetStats() {
	r.h.ResetStats()
	if r.sys != nil {
		r.sys.ResetStats()
	}
	for _, p := range r.preds {
		p.Predictions, p.Mispredicts = 0, 0
	}
}

// tracedPass is Measure's loop driven by hand through the layers' public
// batch entry points: decode a window, run it through the hierarchy with a
// capturing memory sink, hand the captured transactions to the memory
// model, and feed the recorded branches to the per-core predictors.
func (b *replayBench) tracedPass(_ int, tr *tracer, ck *checks) int64 {
	b.n = replayCounts{}
	for i := range b.cfg.l3Sizes {
		r := newRig(b.point(i), tr)
		b.drive(tr, ck, b.warm, r, false, false)
		r.resetStats()
		// Transactions are kept from the first point and allocations
		// counted on the last, so the kept copy's growth is not counted.
		accesses := b.drive(tr, ck, b.main, r, i == 0, i == len(b.cfg.l3Sizes)-1)

		// The hand-driven counters must equal Measure's, field for field.
		ref := b.ref[i]
		h := r.h
		l1, l2, l3, l4 := h.L1Stats(), h.L2Stats(), h.L3Stats(), h.L4Stats()
		ck.that(l1 == ref.L1 && l2 == ref.L2 && l3 == ref.L3 && l4 == ref.L4,
			"%s point %d: traced per-level AccessStats differ from Measure", b.cfg.name, i)
		ck.that(h.MemReads == ref.MemReads && h.MemWrites == ref.MemWrites,
			"%s point %d: traced MemReads/MemWrites %d/%d, Measure %d/%d", b.cfg.name, i, h.MemReads, h.MemWrites, ref.MemReads, ref.MemWrites)
		var mispredicts int64
		for _, p := range r.preds {
			mispredicts += p.Mispredicts
		}
		ck.that(float64(mispredicts)/(float64(ref.Instructions)/1000) == ref.BranchMPKI,
			"%s point %d: traced mispredicts %d disagree with Measure's branch MPKI %v", b.cfg.name, i, mispredicts, ref.BranchMPKI)
		if r.sys != nil {
			snap := r.sys.Snapshot()
			ck.that(ref.Mem != nil && snap == *ref.Mem, "%s point %d: traced mem.Stats differ from Measure", b.cfg.name, i)
			b.n.txns += snap.Reads + snap.Writes
			addMemStats(&b.n.mem, snap)
		}
		b.n.accesses += accesses
		b.n.branches += int64(len(b.main.branches))
		b.n.l1.Add(&l1)
		b.n.l2.Add(&l2)
		b.n.l3.Add(&l3)
		b.n.l4.Add(&l4)
	}
	return b.n.accesses
}

// drive replays one recorded key through the rig by hand and returns the
// accesses replayed. keepTxns retains the memory transactions for the
// near-tier probe; countAllocs counts the heap objects the replay loop
// allocates (the kernels' contract is none).
func (b *replayBench) drive(tr *tracer, ck *checks, key recordedKey, r *rig, keepTxns, countAllocs bool) int64 {
	rec, _ := b.rep.Trace(b.cfg.threads, key.budget, key.seed)
	cur := rec.Cursor()
	var accesses int64
	var before, after runtime.MemStats
	if countAllocs {
		runtime.ReadMemStats(&before)
	}
	for {
		s := tr.begin("trace.decode")
		batch := cur.NextBatch()
		tr.end(s)
		if len(batch) == 0 {
			break
		}
		accesses += int64(len(batch))
		s = tr.begin("cache.access")
		r.h.AccessBatch(batch, nil)
		tr.end(s)
		if txns := r.capture.txns; len(txns) > 0 {
			s = tr.begin("mem.txn")
			feed(r.sys, txns)
			tr.end(s)
			b.n.fedTxns += int64(len(txns))
			if keepTxns {
				b.n.keptTxns = append(b.n.keptTxns, txns...)
			}
			r.capture.txns = txns[:0]
		}
	}
	if countAllocs {
		runtime.ReadMemStats(&after)
		b.n.mallocs, b.n.mallocAccesses = after.Mallocs-before.Mallocs, accesses
	}
	var decodeErr error
	if ce, ok := cur.(interface{ Err() error }); ok {
		decodeErr = ce.Err()
	}
	ck.that(decodeErr == nil && accesses == int64(rec.Len()), "%s: replay stopped at access %d of %d (%v)", b.cfg.name, accesses, rec.Len(), decodeErr)

	s := tr.begin("cpu.branch")
	for _, br := range key.branches {
		r.preds[int(br.thread)%len(r.preds)].Observe(br.b)
	}
	tr.end(s)
	return accesses
}

// addMemStats accumulates the counters the layer metrics read.
func addMemStats(dst *mem.Stats, s mem.Stats) {
	dst.Reads += s.Reads
	dst.Writes += s.Writes
	dst.FarReads += s.FarReads
	dst.RowHits += s.RowHits
	dst.RowMisses += s.RowMisses
}

func (b *replayBench) layers(tr *tracer, sum traceSummary) map[string]metric {
	n := b.n
	probes := tr.begin("bench.probes")
	// Synthesis apart from recording: the raw runner into a counting sink.
	// It runs after both recordings, so it cannot perturb them.
	var synthAccesses int64
	s := tr.begin("workload.synth")
	b.inner.Run(b.cfg.threads, b.main.budget, b.main.seed+1, workload.Sinks{Access: func(trace.Access) { synthAccesses++ }})
	tr.end(s)
	synthS := tr.seconds(s)

	rec, _ := b.rep.Trace(b.cfg.threads, b.main.budget, b.main.seed)
	warm, _ := b.rep.Trace(b.cfg.threads, b.warm.budget, b.warm.seed)
	recorded := float64(rec.Len() + warm.Len())
	// The timed phase replays both keys at every point.
	replayed := recorded * float64(len(b.cfg.l3Sizes))
	perAccess := func(span string, accesses float64) metric {
		return metric{frac(sum.spans[span].SelfS*1e9, accesses), "ns/access"}
	}
	hit := func(st cache.AccessStats) metric { return metric{st.HitRate(), "frac"} }

	out := map[string]metric{}
	if b.cfg.name == "replay_deep" {
		// The near tier alone on the same transactions: what the far tier's
		// page bookkeeping adds is tiered minus near.
		near := mem.NewSystem(mem.Config{})
		s = tr.begin("mem.near_probe")
		feed(near, n.keptTxns)
		tr.end(s)
		nearS := tr.seconds(s)
		out["search.build_s"] = metric{sum.spans["search.build"].SelfS, "s"}
		out["workload.synth_ns_per_access"] = metric{frac(synthS*1e9, float64(synthAccesses)), "ns/access"}
		out["workload.synth_accesses"] = metric{float64(synthAccesses), "count"}
		out["workload.record_flat_ns_per_access"] = perAccess("workload.record", recorded)
		out["trace.decode_flat_ns_per_access"] = perAccess("trace.decode", replayed)
		out["cache.new_ms"] = metric{frac(sum.spans["cache.new"].SelfS*1e3, float64(sum.spans["cache.new"].Calls)), "ms"}
		out["cache.deep_ns_per_access"] = perAccess("cache.access", replayed)
		out["cache.allocs_per_access"] = metric{frac(float64(n.mallocs), float64(n.mallocAccesses)), "allocs/access"}
		out["cache.deep_l1_hit_frac"] = hit(n.l1)
		out["cache.deep_l2_hit_frac"] = hit(n.l2)
		out["cache.deep_l3_hit_frac"] = hit(n.l3)
		out["cache.deep_l4_hit_frac"] = hit(n.l4)
		out["cache.deep_mem_per_kaccess"] = metric{frac(float64(n.txns)*1000, float64(n.accesses)), "1/kaccess"}
		out["mem.near_ns_per_txn"] = metric{frac(nearS*1e9, float64(len(n.keptTxns))), "ns/txn"}
		out["mem.tiered_ns_per_txn"] = metric{frac(sum.spans["mem.txn"].SelfS*1e9, float64(n.fedTxns)), "ns/txn"}
		out["mem.txns"] = metric{float64(n.txns), "count"}
		out["mem.row_hit_frac"] = metric{n.mem.RowHitRate(), "frac"}
		out["mem.far_read_frac"] = metric{n.mem.FarReadFrac(), "frac"}
	} else {
		// The codec apart from the Replayer, on the same access stream:
		// encode it, then decode the compressed blocks from memory.
		cur := rec.Cursor()
		flat := make([]trace.Access, 0, rec.Len())
		for batch := cur.NextBatch(); len(batch) > 0; batch = cur.NextBatch() {
			flat = append(flat, batch...)
		}
		s = tr.begin("trace.encode")
		comp, err := trace.Compress(flat, 0)
		tr.end(s)
		if err != nil {
			panic(err)
		}
		encodeS := tr.seconds(s)
		cur = comp.Cursor()
		decoded := 0
		s = tr.begin("trace.decode_compressed_probe")
		for batch := cur.NextBatch(); len(batch) > 0; batch = cur.NextBatch() {
			decoded += len(batch)
		}
		tr.end(s)
		decodeS := tr.seconds(s)
		if decoded != len(flat) {
			panic("bench: compressed probe decoded a different length than it encoded")
		}

		layerS := 0.0
		for _, name := range []string{"cache.new", "trace.decode", "cache.access", "cpu.branch"} {
			layerS += sum.spans[name].SelfS
		}
		out["workload.synthetic_ns_per_access"] = metric{frac(synthS*1e9, float64(synthAccesses)), "ns/access"}
		out["workload.record_spilled_ns_per_access"] = perAccess("workload.record", recorded)
		out["workload.replay_ns_per_access"] = perAccess("workload.replay", recorded)
		out["workload.measure_residual_frac"] = metric{1 - frac(layerS, sum.untracedS), "frac"}
		out["trace.encode_ns_per_access"] = metric{frac(encodeS*1e9, float64(len(flat))), "ns/access"}
		out["trace.bytes_per_access"] = metric{frac(float64(comp.StoredBytes()), float64(len(flat))), "B/access"}
		out["trace.decode_compressed_ns_per_access"] = metric{frac(decodeS*1e9, float64(len(flat))), "ns/access"}
		out["trace.decode_spilled_ns_per_access"] = perAccess("trace.decode", replayed)
		out["cache.resident_ns_per_access"] = perAccess("cache.access", replayed)
		out["cache.resident_l1_hit_frac"] = hit(n.l1)
		out["cpu.branch_ns_per_branch"] = metric{frac(sum.spans["cpu.branch"].SelfS*1e9, float64(len(b.warm.branches)+len(b.main.branches))*float64(len(b.cfg.l3Sizes))), "ns/branch"}
		out["cpu.branches_per_kaccess"] = metric{frac(float64(n.branches)*1000, float64(n.accesses)), "1/kaccess"}
	}
	tr.end(probes)
	return out
}
