package cache

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// partitionLaw reports whether every upper cache of cfg keeps the lowest bit
// of the L3 block number inside its set index: any two level blocks that
// map to one set agree on it. It walks the blocks directly, independent of
// Partitionable's arithmetic.
func partitionLaw(cfg HierarchyConfig) bool {
	for _, c := range []Config{cfg.L1I, cfg.L1D, cfg.privateL2(), cfg.L3} {
		sets := int(c.Size / int64(c.BlockSize) / int64(c.Assoc))
		ratio := cfg.L3.BlockSize / c.BlockSize
		bit := make(map[int]int, sets)
		for b := 0; b < 4*sets*ratio; b++ {
			want, seen := bit[b%sets]
			if got := b / ratio & 1; seen && got != want {
				return false
			} else if !seen {
				bit[b%sets] = got
			}
		}
	}
	return true
}

// TestPartitionableLaw: over a grid of set counts (powers of two and not),
// block sizes, SplitL2 and the two set-local policies, a configuration is
// accepted exactly when every upper set index contains the partition bit;
// stochastic, duelling, dead-block and fully-associative levels are refused
// whatever their shape.
func TestPartitionableLaw(t *testing.T) {
	accepted := 0
	for _, l1Sets := range []int{1, 2, 3, 4, 6, 8} {
		for _, l2Sets := range []int{2, 4, 6, 8, 12} {
			for _, l3Sets := range []int{1, 2, 3, 4, 6} {
				for _, l2Block := range []int{64, 128} {
					for _, l3Block := range []int{128, 256, 64} {
						if l3Block < l2Block {
							continue
						}
						for _, split := range []bool{false, true} {
							for _, p := range []Policy{LRU, SRRIP} {
								cfg := HierarchyConfig{Cores: 2, ThreadsPerCore: 1, SplitL2: split, L3Inclusive: true,
									L1I: Config{Size: int64(l1Sets * 2 * 64), BlockSize: 64, Assoc: 2, Policy: p},
									L2:  Config{Size: int64(l2Sets * 4 * l2Block), BlockSize: l2Block, Assoc: 4, Policy: p},
									L3:  Config{Size: int64(l3Sets * 4 * l3Block), BlockSize: l3Block, Assoc: 4, Policy: p},
								}
								cfg.L1D = cfg.L1I
								name := fmt.Sprintf("L1 %d sets, L2 %d sets of %d B (split %v), L3 %d sets of %d B, %s", l1Sets, l2Sets, l2Block, split, l3Sets, l3Block, p)
								got, want := Partitionable(cfg), partitionLaw(cfg)
								if got != want {
									t.Errorf("%s: Partitionable = %v, law holds = %v", name, got, want)
								}
								if !got {
									continue
								}
								accepted++
								// Anything that couples sets is refused on an accepted shape.
								for lvl, set := range []func(c *HierarchyConfig, f func(*Config)){
									func(c *HierarchyConfig, f func(*Config)) { f(&c.L1I) },
									func(c *HierarchyConfig, f func(*Config)) { f(&c.L1D) },
									func(c *HierarchyConfig, f func(*Config)) { f(&c.L2) },
									func(c *HierarchyConfig, f func(*Config)) { f(&c.L3) },
								} {
									for _, coupled := range []func(*Config){
										func(c *Config) { c.Policy, c.Seed = BRRIP, 7 },
										func(c *Config) { c.Policy, c.Seed = DRRIP, 7 },
										func(c *Config) { c.Policy, c.DeadBlock = SRRIP, true },
										func(c *Config) { c.Policy, c.Assoc = LRU, 0 },
									} {
										bad := cfg
										set(&bad, coupled)
										if bad.Validate() == nil && Partitionable(bad) {
											t.Errorf("%s: level %d coupled across sets but accepted", name, lvl)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("the grid holds no partitionable configuration")
	}
}

// TestPartitionsConcurrentMatchWhole runs the two partitions of a split
// upper on two goroutines, batch by batch, beside the whole upper: the
// merged port must equal the whole upper's event for event, access index
// and block ordinal included, and the levels access for access. Under
// -race it also shows the partitions share no memory they write.
func TestPartitionsConcurrentMatchWhole(t *testing.T) {
	for _, name := range []string{"lru", "srrip", "allocways", "splitl2"} {
		t.Run(name, func(t *testing.T) {
			sh := namedShapes[name]
			for _, block128 := range []uint16{0, 1 << 4} {
				cfg := decodeShape(sh.shape|block128, 0)
				ops := ownerOps(0xc0ffee+uint64(sh.shape), cfg, 3000)
				whole, a := NewUpper(cfg, false), NewUpper(cfg, false)
				// a runs whole for the first quarter, so the copy carries state.
				var b *Hierarchy
				var merged Port
				var wg sync.WaitGroup
				lw, la, lb := []HitLevel{}, []HitLevel{}, []HitLevel{}
				for i, op := range ops {
					if op.batch == nil {
						continue
					}
					if b == nil && i >= len(ops)/4 {
						b = a.Split()
					}
					lw = whole.AccessBatch(op.batch, lw[:0])
					if b == nil {
						a.AccessBatch(op.batch, nil)
						continue
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						lb = b.AccessBatch(op.batch, lb[:0])
					}()
					la = a.AccessBatch(op.batch, la[:0])
					wg.Wait()
					MergePorts(&merged, a.Port(), b.Port())
					if !slices.Equal(merged.events, whole.Port().events) {
						t.Fatalf("128 B L3 blocks %v, op %d: merged port differs from the whole upper's", block128 != 0, i)
					}
					for j := range la {
						la[j] = max(la[j], lb[j])
					}
					if !slices.Equal(la, lw) {
						t.Fatalf("128 B L3 blocks %v, op %d: merged levels differ from the whole upper's", block128 != 0, i)
					}
				}
				sum, bs := a.UpperStats(), b.UpperStats()
				sum.Add(&bs)
				if sum != whole.UpperStats() {
					t.Fatalf("128 B L3 blocks %v: the partitions' counters do not sum to the whole upper's", block128 != 0)
				}
			}
		})
	}
}
