package cache

// Differential tests for the split at the L3's port: one upper draining into
// N tails must be, state for state, N hierarchies of their own — and so must
// N tails replayed from the upper's recorded Stream.

import (
	"fmt"
	"reflect"
	"testing"

	"searchmem/internal/trace"
)

// tailShape decodes one fuzzed byte into the below-L3 half of cfg: bits 0-1
// the L4 {none, direct-mapped, 4-way, fully associative}, bits 2-3 its
// policy {LRU, random, SRRIP+dead-block, BRRIP} (LRU when fully
// associative), bit 4 a level predictor, bit 5 block keys, bit 6 the
// predictor's confidence threshold.
func tailShape(cfg HierarchyConfig, b uint8) HierarchyConfig {
	cfg.L4, cfg.Predictor = nil, nil
	if kind := b & 3; kind != 0 {
		l4 := &Config{Size: 16 << 10, BlockSize: cfg.L3.BlockSize, Assoc: []int{0, 1, 4, 0}[kind]}
		if kind != 3 {
			l4.Policy = []Policy{LRU, Random, SRRIP, BRRIP}[b>>2&3]
			l4.DeadBlock = l4.Policy == SRRIP
		}
		if l4.Policy.Stochastic() {
			l4.Seed = 77
		}
		cfg.L4 = l4
	}
	if b>>4&1 != 0 {
		cfg.Predictor = &PredictorConfig{TableBits: 8, ConfThreshold: 1 + b>>6&1, Seed: 3, IndexBlock: b>>5&1 != 0}
	}
	return cfg
}

// runTailsDiff drives one ownerOps trace through an upper shared by one tail
// per byte of tails and through a standalone hierarchy per tail, then
// replays the upper's recorded stream into fresh tails: levels, memory
// transcripts and full state must agree three ways.
func runTailsDiff(t *testing.T, seed uint64, shape uint16, tails uint32, n int) {
	t.Helper()
	upCfg := ownerShape(shape)
	var cfgs []HierarchyConfig
	keyMisses := false
	for k := 0; k < 4; k++ {
		cfg := tailShape(upCfg, uint8(tails>>(8*k)))
		cfgs = append(cfgs, cfg)
		keyMisses = keyMisses || cfg.Predictor != nil
	}
	defer func() {
		if t.Failed() {
			t.Logf("seed %#x shape %#x tails %#x n %d", seed, shape, tails, n)
		}
	}()
	up := NewUpper(tailShape(upCfg, 0), keyMisses)
	shared := make([]*Tail, len(cfgs))
	alone := make([]*Hierarchy, len(cfgs))
	sharedMem := make([]memTranscript, len(cfgs))
	aloneMem := make([]memTranscript, len(cfgs))
	for k, cfg := range cfgs {
		shared[k], alone[k] = NewTail(cfg), NewHierarchy(cfg)
		shared[k].SetMemSink(&sharedMem[k])
		alone[k].SetMemSink(&aloneMem[k])
	}

	var rec StreamWriter
	var upLv []HitLevel
	aloneLv := make([][]HitLevel, len(cfgs))
	for _, op := range ownerOps(seed, upCfg, n) {
		if op.batch == nil {
			up.InstallPrefetch(op.core, op.addr, op.seg)
			for k := range cfgs {
				shared[k].Drain(up.Port(), nil)
				alone[k].InstallPrefetch(op.core, op.addr, op.seg)
			}
			rec.Add(up.Port())
			continue
		}
		upLv = up.AccessBatch(op.batch, upLv[:0])
		for k := range cfgs {
			lv := append([]HitLevel(nil), upLv...)
			shared[k].Drain(up.Port(), lv)
			aloneLv[k] = alone[k].AccessBatch(op.batch, aloneLv[k][:0])
			if !reflect.DeepEqual(lv, aloneLv[k]) {
				t.Fatalf("tail %d: levels %v, standalone %v", k, lv, aloneLv[k])
			}
		}
		rec.Add(up.Port())
	}

	stream := rec.Finish()
	var port Port
	for k, cfg := range cfgs {
		replayed := NewTail(cfg)
		var replayedMem memTranscript
		replayed.SetMemSink(&replayedMem)
		stream.Replay(&port, func(p *Port) { replayed.Drain(p, nil) })

		want := snapHierarchy(alone[k])
		for _, got := range []struct {
			name string
			tail *Tail
			mem  []memTxn
		}{{"shared", shared[k], sharedMem[k].txns}, {"replayed", replayed, replayedMem.txns}} {
			if !reflect.DeepEqual(got.mem, aloneMem[k].txns) {
				t.Fatalf("tail %d %s: memory transcript differs (%d vs %d transactions)", k, got.name, len(got.mem), len(aloneMem[k].txns))
			}
			view := *up
			view.Tail = got.tail
			snap := snapHierarchy(&view)
			if !reflect.DeepEqual(snap, want) {
				for key, v := range want {
					if !reflect.DeepEqual(v, snap[key]) {
						t.Errorf("tail %d %s: %s differs from the standalone hierarchy", k, got.name, key)
					}
				}
				t.FailNow()
			}
		}
	}
}

// FuzzTailsMatchStandalone lets the fuzzer pick the upper's shape (as
// FuzzOwnerFilter's, minus its L4 and predictor bits), four tail shapes,
// the seed and the length.
func FuzzTailsMatchStandalone(f *testing.F) {
	f.Add(uint64(1), uint16(0x001), uint32(0x3f_15_06_00), uint16(900))  // 4 cores: none, DM, 4-way random, FA + block-keyed predictor
	f.Add(uint64(2), uint16(0x01f), uint32(0x52_0a_3e_11), uint16(1200)) // 18 cores, SMT, split L2, 128 B L3 blocks
	f.Add(uint64(3), uint16(0x0a6), uint32(0x7f_4e_0d_53), uint16(700))  // 9 cores, SMT, RRIP L3
	f.Fuzz(func(t *testing.T, seed uint64, shape uint16, tails uint32, n uint16) {
		runTailsDiff(t, seed, shape&(1<<8-1), tails, int(n%4096))
	})
}

// TestTailsMatchStandaloneWalk walks upper shapes with tail shapes that
// cover every tailShape field.
func TestTailsMatchStandaloneWalk(t *testing.T) {
	step := 7
	if testing.Short() {
		step = 37
	}
	for shape := 0; shape < 1<<8; shape += step {
		tails := uint32(shape)*0x9e3779b9 | 0x10 // at least one predictor
		t.Run(fmt.Sprintf("shape%#x", shape), func(t *testing.T) {
			runTailsDiff(t, 0x7a11+uint64(shape), uint16(shape), tails, 800)
		})
	}
}

// TestPrefetchChecksL4BeforeVictim pins, by hand, the order a prefetch that
// misses the L3 meets the tail: the L4 is asked for the prefetched block
// before the fill's L3 victim lands in the L4. Block X sits in a
// direct-mapped L4 whose only set X shares with the L3 victim V; asking
// after V arrives would find X evicted and count a memory read.
func TestPrefetchChecksL4BeforeVictim(t *testing.T) {
	cfg := HierarchyConfig{
		Cores: 1, ThreadsPerCore: 1,
		L1I: Config{Size: 128, BlockSize: 64, Assoc: 2},
		L1D: Config{Size: 128, BlockSize: 64, Assoc: 2},
		L2:  Config{Size: 128, BlockSize: 64, Assoc: 2},
		L3:  Config{Size: 128, BlockSize: 64, Assoc: 2},
		L4:  &Config{Size: 64, BlockSize: 64, Assoc: 1},
	}
	h := NewHierarchy(cfg)
	read := func(addr uint64) { h.Access(trace.Access{Addr: addr, Size: 8, Seg: trace.Heap, Kind: trace.Read}) }
	read(0)   // X in the L3
	read(64)  // V in the L3
	read(128) // evicts X (LRU) from the L3 into the one-line L4
	if !h.l4.Contains(0) {
		t.Fatal("setup: X did not land in the L4")
	}
	// Prefetching X misses the L3 and L2 (both two-way, holding V and 128),
	// evicts V from the L3 into the L4, and V displaces X there.
	h.InstallPrefetch(0, 0, trace.Heap)
	if h.PrefetchFills != 1 || h.PrefetchMemReads != 0 {
		t.Errorf("prefetch of an L4-resident block: %d fills, %d memory reads; want 1, 0", h.PrefetchFills, h.PrefetchMemReads)
	}
	if h.l4.Contains(0) || !h.l4.Contains(1) {
		t.Error("the prefetch's L3 victim did not displace the prefetched block from the L4")
	}
}
