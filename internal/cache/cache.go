package cache

import (
	"fmt"
	"strings"

	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// Policy selects the replacement policy of a cache.
type Policy uint8

const (
	// LRU evicts the least-recently-used line (the paper's simulator uses
	// LRU everywhere).
	LRU Policy = iota
	// FIFO evicts the oldest-filled line regardless of reuse.
	FIFO
	// Random evicts a uniformly random line (ablation baseline).
	Random
	// SRRIP is static re-reference interval prediction (Jaleel et al.):
	// 2-bit RRPVs, insertion at "long" (RRPV 2), promotion to "imminent"
	// (RRPV 0) on hit, eviction of the leftmost "distant" (RRPV 3) way.
	SRRIP
	// BRRIP is bimodal RRIP: like SRRIP but inserting at "distant" except
	// for a seeded 1-in-32 chance of "long", which protects the cache from
	// scanning patterns larger than it.
	BRRIP
	// DRRIP set-duels SRRIP against BRRIP: a few leader sets run each
	// policy and a saturating PSEL counter, trained on leader-set misses,
	// picks the insertion policy for all follower sets.
	DRRIP

	// numPolicies bounds the valid Policy values for validation.
	numPolicies
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "random"
	case SRRIP:
		return "SRRIP"
	case BRRIP:
		return "BRRIP"
	case DRRIP:
		return "DRRIP"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy converts a policy name (as printed by Policy.String, matched
// case-insensitively) back to its value. Unknown names are an error — CLI
// flags must reject them rather than silently falling back to LRU.
func ParsePolicy(name string) (Policy, error) {
	for p := LRU; p < numPolicies; p++ {
		if strings.EqualFold(name, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q (valid: %s)", name, PolicyNames())
}

// PolicyNames lists the valid policy names, comma-separated, for flag help
// and error messages.
func PolicyNames() string {
	names := make([]string, 0, int(numPolicies))
	for p := LRU; p < numPolicies; p++ {
		names = append(names, p.String())
	}
	return strings.Join(names, ", ")
}

// Stochastic reports whether the policy consumes the seeded RNG (and so
// requires an explicit non-zero Seed for reproducibility): Random victim
// choice, and BRRIP's bimodal insertion (which DRRIP inherits).
func (p Policy) Stochastic() bool {
	return p == Random || p == BRRIP || p == DRRIP
}

// RRIP reports whether the policy keeps 2-bit re-reference predictions in
// the stamp array instead of recency/fill-order stamps.
func (p Policy) RRIP() bool {
	return p == SRRIP || p == BRRIP || p == DRRIP
}

// Config describes one cache.
type Config struct {
	// Name is used in reports ("L1-I", "L3", ...).
	Name string
	// Size is the capacity in bytes.
	Size int64
	// BlockSize is the line size in bytes (a power of two).
	BlockSize int
	// Assoc is the number of ways per set; 0 requests a fully-associative
	// cache and 1 a direct-mapped one.
	Assoc int
	// Policy is the replacement policy (fully-associative caches support
	// LRU and FIFO only).
	Policy Policy
	// AllocWays, when non-zero, restricts allocation to the first
	// AllocWays ways of each set. This models Intel CAT way-partitioning
	// exactly as the paper uses it: capacity and associativity shrink
	// together (§III-D, §IV-B).
	AllocWays int
	// Seed seeds the stochastic policies (Random victim choice, BRRIP and
	// DRRIP bimodal insertion). Required non-zero for those policies.
	Seed uint64
	// DeadBlock enables dead-block-aware insertion for the RRIP policies:
	// a small tag-hashed counter table, trained on evictions, predicts
	// blocks that will not be reused and inserts them at "distant" RRPV so
	// they are evicted first (the cache-hierarchy survey's dead-block
	// bypassing, restricted to insertion-priority form).
	DeadBlock bool
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.Size <= 0 {
		return fmt.Errorf("cache %q: size must be positive", c.Name)
	}
	if c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache %q: block size %d must be a positive power of two", c.Name, c.BlockSize)
	}
	if c.Assoc < 0 {
		return fmt.Errorf("cache %q: negative associativity", c.Name)
	}
	if c.Policy >= numPolicies {
		return fmt.Errorf("cache %q: unknown replacement policy %d (valid: %s)", c.Name, uint8(c.Policy), PolicyNames())
	}
	if c.Policy.Stochastic() && c.Seed == 0 {
		return fmt.Errorf("cache %q: stochastic policy %s requires a non-zero Seed", c.Name, c.Policy)
	}
	if c.DeadBlock && !c.Policy.RRIP() {
		return fmt.Errorf("cache %q: DeadBlock insertion requires an RRIP policy, got %s", c.Name, c.Policy)
	}
	blocks := c.Size / int64(c.BlockSize)
	if blocks == 0 {
		return fmt.Errorf("cache %q: size smaller than one block", c.Name)
	}
	if c.Assoc > 0 {
		if blocks%int64(c.Assoc) != 0 {
			return fmt.Errorf("cache %q: %d blocks not divisible by %d ways", c.Name, blocks, c.Assoc)
		}
		if c.AllocWays < 0 || c.AllocWays > c.Assoc {
			return fmt.Errorf("cache %q: AllocWays %d out of range [0,%d]", c.Name, c.AllocWays, c.Assoc)
		}
	} else {
		if c.AllocWays != 0 {
			return fmt.Errorf("cache %q: AllocWays unsupported for fully-associative caches", c.Name)
		}
		if c.Policy != LRU && c.Policy != FIFO {
			return fmt.Errorf("cache %q: policy %s unsupported for fully-associative caches (LRU and FIFO only)", c.Name, c.Policy)
		}
	}
	return nil
}

// RoundToSets returns c with its size rounded down to whole sets of its
// ways, at least one set. A fully-associative cache keeps its size.
func (c Config) RoundToSets() Config {
	if c.Assoc > 0 {
		set := int64(c.BlockSize) * int64(c.Assoc)
		c.Size = max(c.Size/set, 1) * set
	}
	return c
}

// Line describes a block held in (or evicted from) a cache.
type Line struct {
	// BlockAddr is the address of the block in block units (addr >> log2(blockSize)).
	BlockAddr uint64
	// Dirty reports whether the block holds unwritten modifications.
	Dirty bool
	// Seg is the segment of the access that installed the block.
	Seg trace.Segment
	// Owners is the line's core-valid byte (bit core&7 set for every core
	// that fetched the line since its fill) when the cache tracks owners —
	// the hierarchy's inclusive set-associative L3 — and allOwners otherwise,
	// so "probe every core" is what an untracked line asks for.
	Owners uint8
}

// allOwners is the core-valid byte of a line whose cache does not track
// owners: every core may hold it.
const allOwners = ^uint8(0)

// The set-associative store is split structure-of-arrays style: the tags
// and stamps the hot probe loop scans live in their own dense arrays (one
// 8-way set of tags is exactly one 64-byte line), while the rarely-read
// valid/dirty/segment flags are packed into one meta byte per way. The old
// array-of-slots layout pulled 24 bytes per way (three lines per 8-way set
// scan); the SoA split is a large part of the batched kernel's speedup.
const (
	metaValid    = 1 << 0
	metaDirty    = 1 << 1
	metaSegShift = 2 // segment (2 bits) in bits 2-3
	// metaReused marks a line that hit at least once since its fill; the
	// dead-block predictor trains on it at eviction time.
	metaReused = 1 << 4
)

// RRIP parameters. RRPVs live in the same stamps array LRU uses for recency
// (values 0..rrpvMax), so the policies share the SoA layout and the batched
// kernels' inlined probes.
const (
	// rrpvMax is the "distant re-reference" value evicted first.
	rrpvMax = 3
	// rrpvLong is SRRIP's insertion value ("long re-reference interval").
	rrpvLong = 2
	// brripInterval is BRRIP's bimodal rate: 1 in brripInterval fills
	// insert at rrpvLong, the rest at rrpvMax.
	brripInterval = 32
	// duelMask/duelSRRIP/duelBRRIP carve DRRIP leader sets out of the set
	// index: set ≡ duelSRRIP (mod duelMask+1) always inserts SRRIP-style,
	// set ≡ duelBRRIP inserts BRRIP-style; the rest follow PSEL.
	duelMask  = 31
	duelSRRIP = 0
	duelBRRIP = 17
	// pselMax saturates the DRRIP policy-selection counter; values above
	// the midpoint mean the SRRIP leaders are missing more (use BRRIP).
	pselMax = 1023
	// Dead-block predictor table: dbBits-entry 2-bit counters, indexed by
	// a multiplicative hash of the block address. A counter at or above
	// dbDeadAt predicts the block dead on arrival.
	dbBits   = 10
	dbMax    = 3
	dbDeadAt = 2
)

// dbHash maps a block address into the dead-block counter table.
func dbHash(block uint64) uint64 {
	return block * 0x9e3779b97f4a7c15 >> (64 - dbBits)
}

// packMeta builds the meta byte for a valid line.
func packMeta(seg trace.Segment, dirty bool) uint8 {
	m := uint8(metaValid) | uint8(seg)<<metaSegShift
	if dirty {
		m |= metaDirty
	}
	return m
}

// metaSeg extracts the installing segment from a meta byte.
func metaSeg(m uint8) trace.Segment { return trace.Segment(m >> metaSegShift & 3) }

// lineAt describes the valid line in slot i of the set-associative store.
func (c *Cache) lineAt(i int) Line {
	l := Line{BlockAddr: c.tags[i], Dirty: c.meta[i]&metaDirty != 0, Seg: metaSeg(c.meta[i]), Owners: allOwners}
	if c.owners != nil {
		l.Owners = c.owners[i]
	}
	return l
}

// faNode is one entry of the fully-associative store's intrusive LRU list.
type faNode struct {
	line       Line
	prev, next int32
}

// Cache is a single functional cache. It is not safe for concurrent use.
type Cache struct {
	cfg        Config
	blockShift uint
	numSets    int
	assoc      int
	allocWays  int

	// array-backed set-associative storage (assoc > 0), SoA-split: way w of
	// set s lives at index s*assoc+w in each array.
	tags   []uint64 // full block address (cheaper than true tag extraction)
	stamps []uint64 // recency (LRU) or fill-order (FIFO) stamp
	meta   []uint8  // metaValid | metaDirty | segment<<metaSegShift
	occ    []uint16 // valid lines per set; == allocWays lets fills skip the free-way scan
	clock  uint64
	isLRU  bool // cfg.Policy == LRU, hoisted out of the hot probe
	isRRIP bool // cfg.Policy.RRIP(), hoisted out of the hot probe
	isDB   bool // cfg.DeadBlock, hoisted out of the hot probe

	// owners is the core-valid byte per way (see Line.Owners); nil unless the
	// hierarchy enabled tracking on this cache (its inclusive L3).
	owners []uint8
	// ownerBit, on a private cache of a hierarchy, is its core's bit in the
	// L3's owner bytes.
	ownerBit uint8

	// DRRIP set-dueling state: PSEL counts SRRIP-leader misses up and
	// BRRIP-leader misses down; followers insert BRRIP-style while it sits
	// above the midpoint.
	psel int32
	// Dead-block predictor counters (nil unless cfg.DeadBlock).
	db []uint8

	// Set indexing: block % numSets, strength-reduced to block & setMask
	// when the set count is a power of two (pow2Sets). The hardware divide
	// the modulo otherwise compiles to costs tens of cycles per probe —
	// more than the set scan itself — so this is one of the kernel's
	// biggest wins. Both forms pick the same set; results are identical.
	pow2Sets bool
	setMask  uint64

	// One-entry line buffer (the software analogue of a hardware L0/way
	// predictor): the block and slot index of the most recent hit or fill.
	// Consecutive same-block references — instruction fetch runs walking a
	// 64-byte line, stack push/pop bursts — skip the set scan entirely.
	// Invariant: lastBlock == invalidTag, or tags[lastIdx] == lastBlock
	// (blocks are unique within a cache, so eviction/invalidation of
	// lastBlock is detected by address comparison alone). Purely a probe
	// shortcut: replacement state updates are identical either way.
	lastBlock uint64
	lastIdx   int32

	// map-backed fully-associative storage (assoc == 0)
	faCap   int
	faIndex map[uint64]int32
	faNodes []faNode
	faHead  int32 // most recent
	faTail  int32 // least recent
	faFree  []int32

	rng *stats.RNG

	// Stats accumulates demand hit/miss counts.
	Stats AccessStats

	// OnEvict, when set, is invoked for every valid line evicted by a
	// fill (demand or writeback). It is the hook the hierarchy uses for
	// inclusive back-invalidation and L4 victim fills.
	OnEvict func(Line)
}

// New builds a cache from cfg. It panics on an invalid configuration;
// callers constructing configs from external input should call
// cfg.Validate first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:       cfg,
		rng:       stats.NewRNG(cfg.Seed ^ 0x5eedcafe),
		isLRU:     cfg.Policy == LRU,
		isRRIP:    cfg.Policy.RRIP(),
		isDB:      cfg.DeadBlock,
		psel:      pselMax / 2,
		lastBlock: invalidTag,
	}
	if cfg.DeadBlock {
		c.db = make([]uint8, 1<<dbBits)
	}
	for bs := cfg.BlockSize; bs > 1; bs >>= 1 {
		c.blockShift++
	}
	blocks := int(cfg.Size / int64(cfg.BlockSize))
	if cfg.Assoc == 0 {
		c.faCap = blocks
		c.faIndex = make(map[uint64]int32, blocks)
		// faNodes never outgrows faCap (a fill appends only while every
		// node is live and below capacity) and faFree holds at most every
		// node, so full capacity up front keeps fills allocation-free.
		c.faNodes = make([]faNode, 0, blocks)
		c.faFree = make([]int32, 0, blocks)
		c.faHead, c.faTail = -1, -1
		return c
	}
	c.assoc = cfg.Assoc
	c.allocWays = cfg.AllocWays
	if c.allocWays == 0 {
		c.allocWays = cfg.Assoc
	}
	c.numSets = blocks / cfg.Assoc
	if c.numSets&(c.numSets-1) == 0 {
		c.pow2Sets = true
		c.setMask = uint64(c.numSets - 1)
	}
	c.tags = make([]uint64, blocks)
	c.stamps = make([]uint64, blocks)
	c.meta = make([]uint8, blocks)
	c.occ = make([]uint16, c.numSets)
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// BlockAddr converts a byte address to this cache's block address.
func (c *Cache) BlockAddr(addr uint64) uint64 { return addr >> c.blockShift }

// BlockShift returns log2(block size).
func (c *Cache) BlockShift() uint { return c.blockShift }

// Access probes for block; on a hit it updates recency (and dirtiness for
// writes) and returns true. On a miss it records the miss and returns false
// WITHOUT filling: the hierarchy decides when and what to fill so that fill
// ordering across levels is explicit.
func (c *Cache) Access(block uint64, seg trace.Segment, kind trace.Kind) bool {
	hit := c.touch(block, kind == trace.Write)
	c.Stats.record(seg, kind, hit)
	return hit
}

// promote updates replacement state for a hit on slot idx: LRU bumps the
// recency stamp, RRIP promotes to "imminent" (RRPV 0) and feeds the
// dead-block predictor's reuse bit; FIFO and Random ignore hits. Small and
// call-free so the batched kernels' inlined probes keep it in registers.
func (c *Cache) promote(idx int) {
	if c.isLRU {
		c.clock++
		c.stamps[idx] = c.clock
	} else if c.isRRIP {
		c.stamps[idx] = 0
		if c.isDB {
			c.meta[idx] |= metaReused
		}
	}
}

// touch probes and updates recency/dirty without recording stats.
func (c *Cache) touch(block uint64, write bool) bool {
	if c.assoc == 0 {
		idx, ok := c.faIndex[block]
		if !ok {
			return false
		}
		if write {
			c.faNodes[idx].line.Dirty = true
		}
		if c.cfg.Policy == LRU {
			c.faMoveToFront(idx)
		}
		return true
	}
	if block == c.lastBlock {
		i := c.lastIdx
		if write {
			c.meta[i] |= metaDirty
		}
		c.promote(int(i))
		return true
	}
	base := c.setBase(block)
	if w := c.findWay(base, block); w >= 0 {
		i := base + w
		if write {
			c.meta[i] |= metaDirty
		}
		c.promote(i)
		c.lastBlock, c.lastIdx = block, int32(i)
		return true
	}
	return false
}

// Contains reports whether block is present without perturbing recency or
// stats.
func (c *Cache) Contains(block uint64) bool {
	if c.assoc == 0 {
		_, ok := c.faIndex[block]
		return ok
	}
	return c.findWay(c.setBase(block), block) >= 0
}

// Fill installs block (e.g. after a miss was serviced by a lower level).
// If a valid line is displaced it is returned with ok = true, and OnEvict
// (if set) is invoked for it. Filling a block that is already present only
// updates its metadata.
func (c *Cache) Fill(block uint64, seg trace.Segment, dirty bool) (evicted Line, ok bool) {
	if c.assoc == 0 {
		return c.faFill(block, seg, dirty)
	}
	// Already present (e.g. race between writeback and demand fill).
	base := c.setBase(block)
	if w := c.findWay(base, block); w >= 0 {
		if dirty {
			c.meta[base+w] |= metaDirty
		}
		return Line{}, false
	}
	return c.fillAbsent(block, seg, dirty)
}

// fillAbsent installs a block known not to be resident — which every
// hierarchy fill path has just established by probing — skipping Fill's
// presence re-scan. When the set is at capacity (the steady state,
// detected from the occupancy counter) the free-way scan is skipped too,
// leaving only the victim selection. Same victim choice as always; the
// scans are skipped exactly when they would find nothing.
func (c *Cache) fillAbsent(block uint64, seg trace.Segment, dirty bool) (evicted Line, ok bool) {
	if c.assoc == 0 {
		return c.faFill(block, seg, dirty)
	}
	set := c.setIndex(block)
	base := set * c.assoc
	victim := -1
	if int(c.occ[set]) < c.allocWays {
		// A free way exists (empty ways hold invalidTag in the tags array).
		tg := c.tags[base : base+c.allocWays]
		for w := range tg {
			if tg[w] == invalidTag {
				victim = w
				break
			}
		}
		c.occ[set]++
	} else {
		switch {
		case c.isRRIP:
			// Evict the leftmost way with the maximum RRPV, after aging
			// every way up so that maximum reaches "distant" (3). One
			// scan + one conditional sweep is equivalent to the textbook
			// "repeat until a 3 is found" loop: aging preserves order, so
			// the first way to reach 3 is the leftmost current maximum.
			st := c.stamps[base : base+c.allocWays]
			victim = 0
			maxv := st[0]
			for w := 1; w < len(st); w++ {
				if s := st[w]; s > maxv {
					victim, maxv = w, s
				}
			}
			if d := rrpvMax - maxv; d != 0 {
				for w := range st {
					st[w] += d
				}
			}
		case c.cfg.Policy == Random:
			victim = c.rng.Intn(c.allocWays)
		default: // LRU and FIFO both evict the minimum stamp
			st := c.stamps[base : base+c.allocWays]
			victim = 0
			best := st[0]
			for w := 1; w < len(st); w++ {
				if s := st[w]; s < best {
					victim, best = w, s
				}
			}
		}
		i := base + victim
		evicted = c.lineAt(i)
		ok = true
		if c.isDB {
			// Train the dead-block predictor on the evicted line's fate:
			// lines that left without a single hit push their address hash
			// toward "dead", reused lines pull it back.
			hsh := dbHash(c.tags[i])
			if c.meta[i]&metaReused != 0 {
				if c.db[hsh] > 0 {
					c.db[hsh]--
				}
			} else if c.db[hsh] < dbMax {
				c.db[hsh]++
			}
		}
		if c.tags[i] == c.lastBlock {
			c.lastBlock = invalidTag
		}
	}
	c.clock++
	i := base + victim
	c.tags[i] = block
	if c.isRRIP {
		c.stamps[i] = c.rripInsert(set, block)
	} else {
		c.stamps[i] = c.clock
	}
	c.meta[i] = packMeta(seg, dirty)
	if c.owners != nil {
		c.owners[i] = 0 // the hierarchy sets the fetching core's bit
	}
	c.lastBlock, c.lastIdx = block, int32(i)
	if ok && c.OnEvict != nil {
		c.OnEvict(evicted)
	}
	return evicted, ok
}

// rripInsert picks the insertion RRPV for a fill into set: SRRIP inserts at
// "long", BRRIP at "distant" except a seeded 1-in-brripInterval chance of
// "long", and DRRIP picks between the two per set via set-dueling (leader
// sets also train PSEL — a fill is a miss, so a fill into a leader set is a
// vote against its policy). A dead-block-predicted address overrides to
// "distant" so it is the set's first victim. Every fill path (demand and
// writeback) goes through here, keeping the RNG consumption — and so the
// whole simulation — independent of how the stream is cut into batches.
func (c *Cache) rripInsert(set int, block uint64) uint64 {
	bimodal := false
	switch c.cfg.Policy {
	case BRRIP:
		bimodal = true
	case DRRIP:
		switch set & duelMask {
		case duelSRRIP:
			if c.psel < pselMax {
				c.psel++
			}
		case duelBRRIP:
			bimodal = true
			if c.psel > 0 {
				c.psel--
			}
		default:
			bimodal = c.psel > pselMax/2
		}
	}
	ins := uint64(rrpvLong)
	if bimodal && c.rng.Intn(brripInterval) != 0 {
		ins = rrpvMax
	}
	if c.isDB && c.db[dbHash(block)] >= dbDeadAt {
		ins = rrpvMax
	}
	return ins
}

// Invalidate removes block if present, returning its line. Used for
// inclusive back-invalidation.
func (c *Cache) Invalidate(block uint64) (line Line, present bool) {
	if c.assoc == 0 {
		idx, ok := c.faIndex[block]
		if !ok {
			return Line{}, false
		}
		line = c.faNodes[idx].line
		c.faRemove(idx)
		return line, true
	}
	set := c.setIndex(block)
	base := set * c.assoc
	if w := c.findWay(base, block); w >= 0 {
		i := base + w
		line = c.lineAt(i)
		c.tags[i] = invalidTag
		c.stamps[i] = 0
		c.meta[i] = 0
		if c.owners != nil {
			c.owners[i] = 0
		}
		c.occ[set]--
		if block == c.lastBlock {
			c.lastBlock = invalidTag
		}
		return line, true
	}
	return Line{}, false
}

// MarkDirty sets the dirty bit if block is present, returning whether it
// was. Used for writebacks landing on a resident line.
func (c *Cache) MarkDirty(block uint64) bool {
	if c.assoc == 0 {
		if idx, ok := c.faIndex[block]; ok {
			c.faNodes[idx].line.Dirty = true
			return true
		}
		return false
	}
	base := c.setBase(block)
	if w := c.findWay(base, block); w >= 0 {
		c.meta[base+w] |= metaDirty
		return true
	}
	return false
}

// invalidTag marks an empty way in the tags array, so the hot probe loop can
// compare tags alone without consulting the valid bit. No simulated address
// can reach it: block addresses are byte addresses shifted right, and the
// workload's flat address space sits far below 2^64.
const invalidTag = ^uint64(0)

// setIndex returns the set a block maps to.
func (c *Cache) setIndex(block uint64) int {
	if c.pow2Sets {
		return int(block & c.setMask)
	}
	return int(block % uint64(c.numSets))
}

// setBase returns the index of way 0 of block's set.
func (c *Cache) setBase(block uint64) int {
	return c.setIndex(block) * c.assoc
}

// findWay scans block's set and returns the way holding it, or -1. The scan
// touches only the dense tags array — for an 8-way set of 64-bit tags that
// is a single cache line.
func (c *Cache) findWay(base int, block uint64) int {
	tags := c.tags[base : base+c.assoc]
	for w := range tags {
		if tags[w] == block {
			return w
		}
	}
	return -1
}

// --- fully-associative store ---

func (c *Cache) faFill(block uint64, seg trace.Segment, dirty bool) (evicted Line, ok bool) {
	if idx, present := c.faIndex[block]; present {
		c.faNodes[idx].line.Dirty = c.faNodes[idx].line.Dirty || dirty
		return Line{}, false
	}
	if len(c.faIndex) >= c.faCap {
		victim := c.faTail
		evicted = c.faNodes[victim].line
		ok = true
		c.faRemove(victim)
	}
	node := faNode{line: Line{BlockAddr: block, Dirty: dirty, Seg: seg, Owners: allOwners}}
	var idx int32
	if n := len(c.faFree); n > 0 {
		idx = c.faFree[n-1]
		c.faFree = c.faFree[:n-1]
		c.faNodes[idx] = node
	} else {
		idx = int32(len(c.faNodes))
		c.faNodes = append(c.faNodes, node)
	}
	c.faPushFront(idx)
	c.faIndex[block] = idx
	if ok && c.OnEvict != nil {
		c.OnEvict(evicted)
	}
	return evicted, ok
}

func (c *Cache) faPushFront(idx int32) {
	c.faNodes[idx].prev = -1
	c.faNodes[idx].next = c.faHead
	if c.faHead >= 0 {
		c.faNodes[c.faHead].prev = idx
	}
	c.faHead = idx
	if c.faTail < 0 {
		c.faTail = idx
	}
}

func (c *Cache) faUnlink(idx int32) {
	n := c.faNodes[idx]
	if n.prev >= 0 {
		c.faNodes[n.prev].next = n.next
	} else {
		c.faHead = n.next
	}
	if n.next >= 0 {
		c.faNodes[n.next].prev = n.prev
	} else {
		c.faTail = n.prev
	}
}

func (c *Cache) faMoveToFront(idx int32) {
	if c.faHead == idx {
		return
	}
	c.faUnlink(idx)
	c.faPushFront(idx)
}

func (c *Cache) faRemove(idx int32) {
	delete(c.faIndex, c.faNodes[idx].line.BlockAddr)
	c.faUnlink(idx)
	c.faFree = append(c.faFree, idx)
}
