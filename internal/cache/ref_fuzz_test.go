package cache

// The cache layer's differential harness: every view of the kernel against
// the naive reference hierarchy (ref_test.go). Per fuzzed upper shape, four
// tail shapes run three ways each — (a) NewHierarchy one access at a time,
// (b) one shared NewUpper cut into random batches and drained into a tail
// per shape, (c) fresh tails replayed from the upper's recorded Stream —
// and each must match that shape's reference. The level predictor has no
// reference; its counters must agree across the three ways, which also holds
// it to batch-split invariance. When the upper is Partitionable, a fourth
// way (d) runs a whole upper up to a seed-chosen op, splits it (Split), runs
// the rest through both set partitions and drains their merged port into a
// tail per shape (without its level predictor, which a split upper does not
// key); the pair, its caches merged set by set, must match the reference
// too.

import (
	"cmp"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"searchmem/internal/det"
	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// decodeShape decodes fuzzed bits into a hierarchy. shape is the upper:
// bits 0-1 cores {1, 4, 9, 18} (9 and 18 alias owner bits), bit 2 SMT 2,
// bit 3 SplitL2, bit 4 a 128 B L3 block over 64 B L1/L2 blocks, bits 5-7
// the L1–L3 policy {LRU, FIFO, random, SRRIP, BRRIP, DRRIP, SRRIP and
// DRRIP with dead-block insertion}, bit 8 a non-inclusive L3, bit 9 a
// fully-associative L3 (FIFO under FIFO, else LRU), bit 10 L3 AllocWays 3
// of 4. tail is the rest: bits 0-1 the L4 {none, direct-mapped, 4-way,
// fully associative}, bits 2-3 its policy {LRU, random, SRRIP+dead-block,
// BRRIP} (LRU when fully associative), bit 4 a level predictor, bit 5 block
// keys, bit 6 the predictor's confidence threshold.
func decodeShape(shape uint16, tail uint8) HierarchyConfig {
	p := []Policy{LRU, FIFO, Random, SRRIP, BRRIP, DRRIP, SRRIP, DRRIP}[shape>>5&7]
	level := func(size int64, assoc int, seed uint64) Config {
		return Config{Size: size, BlockSize: 64, Assoc: assoc, Policy: p, Seed: seed, DeadBlock: shape>>6&3 == 3}
	}
	cfg := HierarchyConfig{
		Cores: []int{1, 4, 9, 18}[shape&3], ThreadsPerCore: 1 + int(shape>>2&1),
		L1I: level(512, 2, 11), L1D: level(512, 2, 12), L2: level(2<<10, 4, 13), L3: level(8<<10, 4, 14),
		SplitL2: shape>>3&1 != 0, L3Inclusive: shape>>8&1 == 0,
	}
	cfg.L3.BlockSize <<= shape >> 4 & 1
	if shape>>9&1 != 0 {
		cfg.L3.Assoc, cfg.L3.DeadBlock = 0, false
		if p != FIFO {
			cfg.L3.Policy = LRU
		}
	} else if shape>>10&1 != 0 {
		cfg.L3.AllocWays = 3
	}
	if kind := tail & 3; kind != 0 {
		cfg.L4 = &Config{Size: 16 << 10, BlockSize: cfg.L3.BlockSize, Assoc: []int{0, 1, 4, 0}[kind], Seed: 77}
		if kind != 3 {
			cfg.L4.Policy = []Policy{LRU, Random, SRRIP, BRRIP}[tail>>2&3]
			cfg.L4.DeadBlock = cfg.L4.Policy == SRRIP
		}
	}
	if tail>>4&1 != 0 {
		cfg.Predictor = &PredictorConfig{TableBits: 8, ConfThreshold: 1 + tail>>6&1, Seed: 3, IndexBlock: tail>>5&1 != 0}
	}
	return cfg
}

// namedShapes are the decoder points the compressed-replay and allocation
// tests run: every L1–L3 policy, way-partitioning, a fully-associative L3,
// split L2s, the L4 and the level predictor in both keyings, on four cores.
var namedShapes = map[string]struct {
	shape uint16
	tail  uint8
}{
	"lru": {0x001, 0}, "fifo": {0x021, 0}, "random": {0x041, 0}, "srrip": {0x061, 0}, "brrip": {0x081, 0},
	"drrip": {0x0a1, 0}, "srrip+db": {0x0c1, 0}, "allocways": {0x401, 0}, "fullyassoc": {0x201, 0},
	"l4": {0x001, 0x02}, "splitl2": {0x009, 0x02}, "pred": {0x001, 0x12}, "predblock": {0x061, 0x30},
}

// memTxn is one main-memory transaction as a MemSink sees it.
type memTxn struct {
	addr  uint64
	seg   trace.Segment
	write bool
}

// memTranscript is a MemSink that keeps every transaction in order.
type memTranscript []memTxn

func (m *memTranscript) MemRead(addr uint64, seg trace.Segment) {
	*m = append(*m, memTxn{addr, seg, false})
}
func (m *memTranscript) MemWrite(addr uint64, seg trace.Segment) {
	*m = append(*m, memTxn{addr, seg, true})
}

// ownerAddr draws an address from three regions: lines every thread shares
// (several owner bits per L3 line, and more of them than the L3 holds, so
// shared lines are evicted while privately cached), a per-thread region, and
// a cold region that forces L3 evictions.
func ownerAddr(rng *stats.RNG, thread int) uint64 {
	switch rng.Intn(4) {
	case 0, 1:
		return uint64(rng.Intn(12 << 10))
	case 2:
		return 1<<20 + uint64(thread)<<12 + uint64(rng.Intn(1<<10))
	default:
		return 1<<30 + uint64(rng.Intn(1<<18))
	}
}

// ownerOp is one step of an ownerOps trace: a demand batch, or — when batch
// is nil — a prefetch install of addr into core's L2.
type ownerOp struct {
	batch []trace.Access
	core  int
	addr  uint64
	seg   trace.Segment
}

// ownerOps draws one random multi-thread trace of about n accesses for cfg:
// demand batches of varying size over ownerAddr's regions, with prefetch
// installs interleaved.
func ownerOps(seed uint64, cfg HierarchyConfig, n int) []ownerOp {
	rng := stats.NewRNG(seed | 1)
	threads := min(2*cfg.Cores*cfg.ThreadsPerCore, 256) // thread ids wrap onto cores
	var ops []ownerOp
	for i := 0; i < n; {
		if rng.Intn(8) == 0 {
			core := rng.Intn(cfg.Cores)
			ops = append(ops, ownerOp{core: core, addr: ownerAddr(rng, core), seg: trace.Segment(rng.Intn(trace.NumSegments))})
		}
		batch := make([]trace.Access, 1+rng.Intn(64))
		for j := range batch {
			th := rng.Intn(threads)
			batch[j] = trace.Access{Addr: ownerAddr(rng, th), Size: uint16(1 << rng.Intn(7)),
				Seg: trace.Segment(rng.Intn(trace.NumSegments)), Kind: trace.Kind(rng.Intn(trace.NumKinds)), Thread: uint8(th)}
		}
		ops = append(ops, ownerOp{batch: batch})
		i += len(batch)
	}
	return ops
}

// opsTrace is an ownerOps trace's accesses over four cores, in one slice.
func opsTrace(seed uint64, n int) (tr []trace.Access) {
	for _, op := range ownerOps(seed, decodeShape(0x001, 0), n) {
		tr = append(tr, op.batch...)
	}
	return tr
}

// checkOwnerInvariant asserts what inclusion and the core-valid filter's
// exactness rest on: every valid line of every private cache is covered by
// an L3 line, with the private cache's core bit set when the L3 tracks
// owners.
func checkOwnerInvariant(t *testing.T, h *Hierarchy, when string) {
	t.Helper()
	for _, c := range slices.Concat(h.l1i, h.l1d, h.l2, h.l2i) {
		for _, tag := range c.tags {
			l3Block := tag << c.blockShift >> h.l3.blockShift
			if tag == invalidTag {
				continue
			} else if !h.l3.Contains(l3Block) {
				t.Fatalf("%s: %s holds block %#x but the L3 does not cover it", when, c.cfg.Name, tag)
			} else if h.l3.owners == nil {
				continue
			} else if base := h.l3.setBase(l3Block); h.l3.owners[base+h.l3.findWay(base, l3Block)]&c.ownerBit == 0 {
				t.Fatalf("%s: %s holds block %#x but its bit %#x is clear in the L3 line's owners", when, c.cfg.Name, tag, c.ownerBit)
			}
		}
	}
}

// view is what the views of one hierarchy must agree on, by name: the
// levels, the prefetch fills, the memory counters, the MemSink transcript
// and "cache i", the i-th cache of the L3, the L4 and every core's L1-I,
// every L1-D, L2 and L2-I.
type view map[string]any

// cacheView is a cache as the harness compares it: its counters without the
// predictor's overlay, and every way in place, or the valid lines most
// recent first, without stamps, when fully associative.
type cacheView struct {
	stats AccessStats
	ways  []refWay
}

// kernelCache is c's cacheView.
func kernelCache(c *Cache) cacheView {
	if c == nil {
		return cacheView{}
	}
	v := cacheView{c.Stats, []refWay{}}
	v.stats.PredHits, v.stats.PredMispredicts, v.stats.PredSkips = 0, 0, 0
	for i := c.faHead; c.assoc == 0 && i >= 0; i = c.faNodes[i].next {
		l := c.faNodes[i].line
		v.ways = append(v.ways, refWay{block: l.BlockAddr, valid: true, dirty: l.Dirty, seg: l.Seg})
	}
	for i, tag := range c.tags {
		w := refWay{}
		if tag != invalidTag {
			w = refWay{block: tag, valid: true, dirty: c.meta[i]&metaDirty != 0, seg: metaSeg(c.meta[i]), stamp: c.stamps[i]}
		}
		v.ways = append(v.ways, w)
	}
	return v
}

// view is the reference cache's cacheView.
func (r *refCache) view() cacheView {
	if r == nil {
		return cacheView{}
	}
	ways := slices.Concat(r.sets...)
	if r.cfg.Assoc == 0 {
		ways = slices.DeleteFunc(ways, func(w refWay) bool { return !w.valid })
		slices.SortFunc(ways, func(a, b refWay) int { return cmp.Compare(b.stamp, a.stamp) })
	}
	for i := range ways {
		ways[i].reused = false
		if r.cfg.Assoc == 0 {
			ways[i].stamp = 0
		}
	}
	return cacheView{r.stats, ways}
}

// kernelView is the view of the upper up over the tail t, or of the tail
// alone (its L4, memory counters and transcript) when up is nil.
func kernelView(up *Hierarchy, t *Tail, levels []HitLevel, mem memTranscript) view {
	v := view{"cache 1": kernelCache(t.l4), "transcript": mem, "memory": [3]int64{t.MemReads, t.MemWrites, t.PrefetchMemReads}}
	if up != nil {
		v["levels"], v["prefetch fills"] = levels, up.PrefetchFills
		for i, c := range slices.Concat([]*Cache{up.l3, t.l4}, up.l1i, up.l1d, up.l2, up.l2i) {
			v[fmt.Sprint("cache ", i)] = kernelCache(c)
		}
	}
	return v
}

// kernelPred is the level predictor's counters and its overlay on the L2,
// L3 and L4.
func kernelPred(t *Tail) [3]any {
	l4 := t.L4Stats()
	return [3]any{t.PredictorStats(), t.Overlay(UpperStats{}), [3]int64{l4.PredHits, l4.PredMispredicts, l4.PredSkips}}
}

func (r *refHierarchy) view(levels []HitLevel) view {
	writes := int64(0)
	for _, x := range r.mem {
		if x.write {
			writes++
		}
	}
	v := view{"levels": levels, "prefetch fills": r.prefetchFills, "transcript": r.mem,
		"memory": [3]int64{int64(len(r.mem)) - writes, writes, r.prefetchMemReads}}
	for i, c := range slices.Concat([]*refCache{r.l3, r.l4}, r.private) {
		v[fmt.Sprint("cache ", i)] = c.view()
	}
	return v
}

// replay runs ops through the reference and returns its levels.
func (r *refHierarchy) replay(ops []ownerOp) (levels []HitLevel) {
	for _, op := range ops {
		if op.batch == nil {
			r.prefetch(op.core, op.addr, op.seg)
		}
		for _, a := range op.batch {
			levels = append(levels, r.access(a))
		}
	}
	return levels
}

// compareViews reports every entry of got that differs from want's.
func compareViews(t *testing.T, name string, got, want view) {
	t.Helper()
	for _, k := range det.SortedKeys(got) {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("%s: %s differs from the reference", name, k)
		}
	}
}

// runReference drives one ownerOps trace through the four tail shapes of
// tails (a byte each) under the upper shape, three ways per tail shape, and
// compares each way with that shape's reference.
func runReference(t *testing.T, seed uint64, shape uint16, tails uint32, n int) {
	t.Helper()
	var one [4]*Hierarchy // (a)
	var shared [4]*Tail   // (b), below up
	var lv [8][]HitLevel  // (a) then (b)
	var mem [8]memTranscript
	keyMisses := false
	for k := range one {
		cfg := decodeShape(shape, uint8(tails>>(8*k)))
		one[k], shared[k] = NewHierarchy(cfg), NewTail(cfg)
		one[k].SetMemSink(&mem[k])
		shared[k].SetMemSink(&mem[4+k])
		keyMisses = keyMisses || cfg.Predictor != nil
	}
	up := NewUpper(one[0].Config(), keyMisses)
	ops := ownerOps(seed, up.Config(), n)
	var rec StreamWriter
	upLv := []HitLevel{} // non-nil: AccessBatch reports levels
	for i, op := range ops {
		if op.batch == nil {
			up.InstallPrefetch(op.core, op.addr, op.seg)
		} else {
			upLv = up.AccessBatch(op.batch, upLv[:0])
		}
		for k, tl := range shared {
			if op.batch == nil {
				one[k].InstallPrefetch(op.core, op.addr, op.seg)
				tl.Drain(up.Port(), nil)
				continue
			}
			for _, a := range op.batch {
				lv[k] = append(lv[k], one[k].Access(a))
			}
			lv[4+k] = append(lv[4+k], upLv...)
			tl.Drain(up.Port(), lv[4+k][len(lv[4+k])-len(upLv):])
		}
		rec.Add(up.Port())
		if up.Config().L3Inclusive {
			checkOwnerInvariant(t, up, fmt.Sprintf("shared upper, op %d", i))
			checkOwnerInvariant(t, one[0], fmt.Sprintf("one access at a time, op %d", i))
		}
	}
	stream := rec.Finish()
	pair := runPartitioned(seed, shape, tails, ops)
	var port Port
	for k, h := range one {
		replayed, replayedMem := NewTail(h.Config()), memTranscript(nil)
		replayed.SetMemSink(&replayedMem)
		stream.Replay(&port, func(p *Port) { replayed.Drain(p, nil) })
		ref := newRefHierarchy(h.Config())
		want := ref.view(ref.replay(ops))
		compareViews(t, fmt.Sprintf("tail %d, one access at a time", k), kernelView(h, h.Tail, lv[k], mem[k]), want)
		compareViews(t, fmt.Sprintf("tail %d, shared upper", k), kernelView(up, shared[k], lv[4+k], mem[4+k]), want)
		// A replayed tail's upper is the shared one, compared above.
		compareViews(t, fmt.Sprintf("tail %d, replayed stream", k), kernelView(nil, replayed, nil, replayedMem), want)
		if pair != nil {
			compareViews(t, fmt.Sprintf("tail %d, set partitions split at op %d", k, pair.cut), pair.view(k), rankStamps(want, pair.a))
		}
		if p := kernelPred(h.Tail); p != kernelPred(shared[k]) || p != kernelPred(replayed) {
			t.Errorf("tail %d: predictor counters differ across the three views", k)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// partitioned is view (d): the two set partitions of one upper and a tail
// per tail shape below their merged port, with what those tails resolved.
type partitioned struct {
	a, b   *Hierarchy // partition 0 (the whole upper before cut) and 1
	cut    int        // the op before which the whole upper was split
	tails  [4]*Tail
	levels [4][]HitLevel
	mem    [4]memTranscript
}

// runPartitioned runs ops through view (d), or returns nil when the upper
// is not Partitionable. The split falls before op seed mod (len(ops)+1), so
// the fuzzer also picks a split before the first op and none at all.
func runPartitioned(seed uint64, shape uint16, tails uint32, ops []ownerOp) *partitioned {
	cfg := decodeShape(shape, 0)
	if !Partitionable(cfg) {
		return nil
	}
	p := &partitioned{a: NewUpper(cfg, false), cut: int(seed % uint64(len(ops)+1))}
	for k := range p.tails {
		tc := decodeShape(shape, uint8(tails>>(8*k)))
		tc.Predictor = nil
		p.tails[k] = NewTail(tc)
		p.tails[k].SetMemSink(&p.mem[k])
	}
	var merged Port
	lv, lvB := []HitLevel{}, []HitLevel{} // non-nil: AccessBatch reports levels
	for i, op := range ops {
		if i == p.cut {
			p.b = p.a.Split()
		}
		if op.batch == nil {
			p.a.InstallPrefetch(op.core, op.addr, op.seg)
		} else {
			lv = p.a.AccessBatch(op.batch, lv[:0])
		}
		port := p.a.Port()
		if p.b != nil {
			if op.batch == nil {
				p.b.InstallPrefetch(op.core, op.addr, op.seg)
			} else {
				lvB = p.b.AccessBatch(op.batch, lvB[:0])
				for j := range lv {
					lv[j] = max(lv[j], lvB[j])
				}
			}
			MergePorts(&merged, p.a.Port(), p.b.Port())
			port = &merged
		}
		for k, tl := range p.tails {
			if op.batch == nil {
				tl.Drain(port, nil)
				continue
			}
			p.levels[k] = append(p.levels[k], lv...)
			tl.Drain(port, p.levels[k][len(p.levels[k])-len(lv):])
		}
	}
	return p
}

// view is tail k's view of the pair: every upper cache merged from the two
// partitions, each set from the partition that owns it, with the counters
// summed and LRU/FIFO stamps ranked within each set (rankStamps), since each
// partition stamps from its own clock.
func (p *partitioned) view(k int) view {
	v := kernelView(p.a, p.tails[k], p.levels[k], p.mem[k])
	if p.b == nil {
		return rankStamps(v, p.a)
	}
	v["prefetch fills"] = p.a.PrefetchFills + p.b.PrefetchFills
	bs := p.b.caches()
	for i, c := range p.a.caches() {
		key := cacheKey(i)
		cv := v[key].(cacheView)
		cv.stats.Add(&bs[i].Stats)
		other := kernelCache(bs[i]).ways
		ratio := int(p.a.cfg.L3.BlockSize >> c.blockShift)
		for w := range cv.ways {
			if set := w / c.assoc; set/ratio&1 == 1 {
				cv.ways[w] = other[w]
			}
		}
		v[key] = cv
	}
	return rankStamps(v, p.a)
}

// cacheKey is the view key of the i-th cache of Hierarchy.caches: the L3 is
// "cache 0" and the private caches follow the L4's "cache 1".
func cacheKey(i int) string {
	if i > 0 {
		i++
	}
	return fmt.Sprint("cache ", i)
}

// rankStamps returns v with the stamps of every LRU or FIFO upper cache
// replaced by their rank among the valid ways of their set: those policies
// read only the order of a set's stamps, which is what two partitions with
// clocks of their own preserve. h supplies the caches' shapes.
func rankStamps(v view, h *Hierarchy) view {
	out := maps.Clone(v)
	for i, c := range h.caches() {
		if c.isRRIP {
			continue
		}
		key := cacheKey(i)
		cv := out[key].(cacheView)
		ways := slices.Clone(cv.ways)
		for w := range ways {
			set := cv.ways[w/c.assoc*c.assoc : (w/c.assoc+1)*c.assoc]
			ways[w].stamp = 0
			for _, o := range set {
				if ways[w].valid && o.valid && o.stamp < cv.ways[w].stamp {
					ways[w].stamp++
				}
			}
		}
		out[key] = cacheView{cv.stats, ways}
	}
	return out
}

// FuzzHierarchyMatchesReference lets the fuzzer pick the upper shape, four
// tail shapes, the trace seed and its length.
func FuzzHierarchyMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(0x001), uint32(0x3f_15_06_00), uint16(900))   // 4 cores; L4 none, 4-way random, DM random + per-PC predictor, FA + block keys
	f.Add(uint64(2), uint16(0x11f), uint32(0x52_0a_3e_11), uint16(1200))  // 18 cores, SMT, split L2, 128 B L3 blocks, non-inclusive
	f.Add(uint64(3), uint16(0x6a6), uint32(0x7f_4e_0d_53), uint16(700))   // 9 cores, SMT, DRRIP, fully-associative L3
	f.Add(uint64(331), uint16(0x469), uint32(0x0e_03_02_00), uint16(900)) // 4 cores, split L2, SRRIP, L3 AllocWays: split at op 331 mod ops
	f.Add(uint64(5), uint16(0x035), uint32(0x2e_0a_01_00), uint16(1500))  // 4 cores, SMT, FIFO, 128 B L3 blocks
	f.Fuzz(func(t *testing.T, seed uint64, shape uint16, tails uint32, n uint16) {
		runReference(t, seed, shape&(1<<11-1), tails, int(n%4096))
	})
}

// TestHierarchyMatchesReferenceWalk walks upper shapes with an odd stride, so
// every value of every field appears, each with tail shapes that cover
// every tail field.
func TestHierarchyMatchesReferenceWalk(t *testing.T) {
	step := 15
	if testing.Short() {
		step = 61
	}
	for shape := 0; shape < 1<<11; shape += step {
		t.Run(fmt.Sprintf("shape%#x", shape), func(t *testing.T) {
			t.Parallel()
			runReference(t, 0x7a11+uint64(shape), uint16(shape), uint32(shape)*0x9e3779b9|0x10, 800)
		})
	}
}

// TestDirtyL2VictimLaw measures known limitation 5 in the reference. With
// an inclusive L3 the L2 line an L1 write-back evicts always has its
// covering L3 line, so writing it back can only mark that line dirty:
// keeping it moves no level, count, tag or memory read, and only adds
// memory writes.
func TestDirtyL2VictimLaw(t *testing.T) {
	lost := int64(0)
	for shape := 0; shape < 1<<11; shape += 37 {
		cfg := decodeShape(uint16(shape)&^0x100, uint8(shape*0x9e3779b9>>24)) // inclusive
		ops := ownerOps(0x1a5+uint64(shape), cfg, 1500)
		drop, keep := newRefHierarchy(cfg), newRefHierarchy(cfg)
		keep.dropDirtyL2Victim = false
		d, k := drop.view(drop.replay(ops)), keep.view(keep.replay(ops))
		dw, kw := d["memory"].([3]int64)[1], k["memory"].([3]int64)[1]
		if kw < dw {
			t.Errorf("shape %#x: keeping dirty L2 victims cut memory writes from %d to %d", shape, dw, kw)
		}
		lost += kw - dw
		compareViews(t, fmt.Sprintf("shape %#x, dirty L2 victims kept", shape), withoutWrites(k), withoutWrites(d))
	}
	t.Logf("limitation 5: %d memory writes lost over the walked shapes", lost)
	if lost == 0 {
		t.Error("no walked shape lost a dirty L2 victim")
	}
}

// withoutWrites is v with every dirty bit cleared and the memory writes
// left out.
func withoutWrites(v view) view {
	for k, x := range v {
		switch x := x.(type) {
		case cacheView:
			for i := range x.ways {
				x.ways[i].dirty = false
			}
		case memTranscript:
			v[k] = slices.DeleteFunc(slices.Clone(x), func(m memTxn) bool { return m.write })
		case [3]int64:
			x[1] = 0
			v[k] = x
		}
	}
	return v
}
