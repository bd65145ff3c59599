package cache

// Differential and invariant tests for the inclusive L3's core-valid filter.
// The reference is the same hierarchy with h.l3.owners set to nil: every
// evicted Line then reads allOwners and onL3Evict probes every core, which is
// what the hierarchy did before the filter existed. The filter is exact iff
// the two agree on everything observable.

import (
	"fmt"
	"reflect"
	"testing"

	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// ownerShape decodes a fuzzed bit pattern into a hierarchy configuration:
// bits 0-1 cores {1, 4, 9, 18} (9 and 18 alias owner bits), bit 2 SMT 2,
// bit 3 SplitL2, bit 4 a 128 B L3 block over 64 B L1/L2 blocks, bits 5-7 the
// L3 policy, bit 8 an L4, bit 10 a level predictor (bit 9 is unused).
func ownerShape(shape uint16) HierarchyConfig {
	cfg := HierarchyConfig{
		Cores:          []int{1, 4, 9, 18}[shape&3],
		ThreadsPerCore: 1 + int(shape>>2&1),
		L1I:            Config{Size: 512, BlockSize: 64, Assoc: 2},
		L1D:            Config{Size: 512, BlockSize: 64, Assoc: 2},
		L2:             Config{Size: 2 << 10, BlockSize: 64, Assoc: 4},
		L3:             Config{Size: 8 << 10, BlockSize: 64, Assoc: 4, Policy: Policy((shape >> 5 & 7) % uint16(numPolicies))},
		L3Inclusive:    true,
		SplitL2:        shape>>3&1 != 0,
	}
	if shape>>4&1 != 0 {
		cfg.L3.BlockSize = 128
	}
	if cfg.L3.Policy.Stochastic() {
		cfg.L3.Seed = 21
	}
	if shape>>8&1 != 0 {
		cfg.L4 = &Config{Size: 32 << 10, BlockSize: cfg.L3.BlockSize, Assoc: 1}
	}
	if shape>>10&1 != 0 {
		cfg.Predictor = &PredictorConfig{TableBits: 8, ConfThreshold: 1, Seed: 5}
	}
	return cfg
}

// memTxn is one main-memory transaction as a MemSink sees it.
type memTxn struct {
	addr  uint64
	seg   trace.Segment
	write bool
}

// memTranscript is a MemSink that keeps every transaction in order.
type memTranscript struct{ txns []memTxn }

func (m *memTranscript) MemRead(addr uint64, seg trace.Segment) {
	m.txns = append(m.txns, memTxn{addr: addr, seg: seg})
}

func (m *memTranscript) MemWrite(addr uint64, seg trace.Segment) {
	m.txns = append(m.txns, memTxn{addr: addr, seg: seg, write: true})
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

// checkOwnerInvariant asserts what the filter's exactness rests on: every
// valid line of every private cache is covered by an L3 line, with the
// private cache's core bit set when the L3 tracks owners.
func checkOwnerInvariant(t *testing.T, h *Hierarchy, when string) {
	t.Helper()
	for _, group := range [][]*Cache{h.l1i, h.l1d, h.l2, h.l2i} {
		for _, c := range group {
			for _, tag := range c.tags {
				if tag == invalidTag {
					continue
				}
				l3Block := tag << c.blockShift >> h.l3.blockShift
				base := h.l3.setBase(l3Block)
				w := h.l3.findWay(base, l3Block)
				if w < 0 {
					t.Fatalf("%s: %s holds block %#x but the L3 does not cover it", when, c.cfg.Name, tag)
				}
				if h.l3.owners != nil && h.l3.owners[base+w]&c.ownerBit == 0 {
					t.Fatalf("%s: %s holds block %#x but its bit %#x is clear in the L3 line's owners %#x",
						when, c.cfg.Name, tag, c.ownerBit, h.l3.owners[base+w])
				}
			}
		}
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
			addr, seg := ownerAddr(rng, core), trace.Segment(rng.Intn(trace.NumSegments))
			ops = append(ops, ownerOp{core: core, addr: addr, seg: seg})
		}
		batch := make([]trace.Access, 1+rng.Intn(64))
		for j := range batch {
			th := rng.Intn(threads)
			batch[j] = trace.Access{
				Addr:   ownerAddr(rng, th),
				Size:   uint16(1 << rng.Intn(7)),
				Seg:    trace.Segment(rng.Intn(trace.NumSegments)),
				Kind:   trace.Kind(rng.Intn(trace.NumKinds)),
				Thread: uint8(th),
			}
		}
		ops = append(ops, ownerOp{batch: batch})
		i += len(batch)
	}
	return ops
}

// runOwnerDiff drives one ownerOps trace through a filtered hierarchy and
// its probe-every-core reference, checking the invariant after every batch
// and equality of every observable at the end.
func runOwnerDiff(t *testing.T, seed uint64, shape uint16, n int) {
	t.Helper()
	cfg := ownerShape(shape)
	defer func() {
		if t.Failed() {
			t.Logf("seed %#x shape %#x n %d: %+v", seed, shape, n, cfg)
		}
	}()
	got, ref := NewHierarchy(cfg), NewHierarchy(cfg)
	if got.l3.owners == nil {
		t.Fatal("inclusive set-associative L3 does not track owners")
	}
	ref.l3.owners = nil
	var gotMem, refMem memTranscript
	got.SetMemSink(&gotMem)
	ref.SetMemSink(&refMem)

	var gotLv, refLv []HitLevel
	i := 0
	for _, op := range ownerOps(seed, cfg, n) {
		if op.batch == nil {
			got.InstallPrefetch(op.core, op.addr, op.seg)
			ref.InstallPrefetch(op.core, op.addr, op.seg)
			continue
		}
		gotLv = got.AccessBatch(op.batch, gotLv)
		refLv = ref.AccessBatch(op.batch, refLv)
		i += len(op.batch)
		checkOwnerInvariant(t, got, fmt.Sprintf("after %d accesses", i))
	}
	checkOwnerInvariant(t, ref, "reference, end of trace") // inclusion itself

	if !reflect.DeepEqual(gotLv, refLv) {
		t.Fatal("HitLevel sequence differs from the probe-every-core reference")
	}
	if !reflect.DeepEqual(gotMem.txns, refMem.txns) {
		t.Fatalf("memory transcript differs from the reference (%d vs %d transactions)", len(gotMem.txns), len(refMem.txns))
	}
	gotSnap, refSnap := snapHierarchy(got), snapHierarchy(ref)
	l3 := gotSnap["L3"].(cacheSnap)
	l3.Owners = nil // the one thing the reference does not have
	gotSnap["L3"] = l3
	if !reflect.DeepEqual(gotSnap, refSnap) {
		for k, v := range gotSnap {
			if !reflect.DeepEqual(v, refSnap[k]) {
				t.Errorf("%s: stats or contents differ from the reference", k)
			}
		}
		t.FailNow()
	}
}

// TestOwnerFilterMatchesProbeAll walks the shapes ownerShape decodes with a
// per-shape seed. The strides are odd, so every value of every field (each a
// power-of-two period) still appears.
func TestOwnerFilterMatchesProbeAll(t *testing.T) {
	step := 5
	if testing.Short() {
		step = 25
	}
	for shape := 0; shape < 1<<11; shape += step {
		runOwnerDiff(t, 0x5eed+uint64(shape)*0x9e3779b9, uint16(shape), 1500)
	}
}

// TestOwnerFilterOnlyWhereItApplies pins the filter's scope: tracked only on
// an inclusive set-associative L3, and an untracked cache reports allOwners.
func TestOwnerFilterOnlyWhereItApplies(t *testing.T) {
	incl := tinyHierarchy(2, &Config{Size: 32 << 10, BlockSize: 64, Assoc: 4})
	if h := NewHierarchy(incl); h.l3.owners == nil || h.l4.owners != nil || h.l2[0].owners != nil {
		t.Error("owners must be tracked on the inclusive L3 and nowhere else")
	}
	nonIncl := incl
	nonIncl.L3Inclusive = false
	if NewHierarchy(nonIncl).l3.owners != nil {
		t.Error("non-inclusive L3 tracks owners")
	}
	fa := incl
	fa.L3.Assoc = 0
	if NewHierarchy(fa).l3.owners != nil {
		t.Error("fully-associative L3 tracks owners")
	}
	for _, cfg := range []Config{{Size: 128, BlockSize: 64, Assoc: 2}, {Size: 128, BlockSize: 64}} {
		c := New(cfg)
		c.Fill(1, trace.Heap, false)
		c.Fill(3, trace.Heap, false)
		if ev, ok := c.Fill(5, trace.Heap, false); !ok || ev.Owners != allOwners {
			t.Errorf("assoc %d: evicted line %+v, want Owners %#x", cfg.Assoc, ev, allOwners)
		}
		if l, ok := c.Invalidate(3); !ok || l.Owners != allOwners {
			t.Errorf("assoc %d: invalidated line %+v, want Owners %#x", cfg.Assoc, l, allOwners)
		}
	}
}

// FuzzOwnerFilter lets the fuzzer pick the shape, the seed and the length.
func FuzzOwnerFilter(f *testing.F) {
	f.Add(uint64(1), uint16(0x001), uint16(800))  // 4 cores, plain
	f.Add(uint64(2), uint16(0x11f), uint16(1200)) // 18 cores, SMT, split L2, 128 B L3 blocks, L4
	f.Add(uint64(3), uint16(0x7a6), uint16(600))  // 9 cores, SMT, predictor, L4
	f.Fuzz(func(t *testing.T, seed uint64, shape uint16, n uint16) {
		runOwnerDiff(t, seed, shape&(1<<11-1), int(n%4096))
	})
}
