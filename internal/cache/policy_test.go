package cache

import (
	"strings"
	"testing"

	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// allPolicies enumerates every valid Policy value.
func allPolicies() []Policy {
	ps := make([]Policy, 0, int(numPolicies))
	for p := LRU; p < numPolicies; p++ {
		ps = append(ps, p)
	}
	return ps
}

// seededCfg returns a small valid config for p (seeding stochastic ones).
func seededCfg(p Policy, assoc int) Config {
	cfg := Config{Name: "test", Size: 1024, BlockSize: 64, Assoc: assoc, Policy: p}
	if p.Stochastic() {
		cfg.Seed = 7
	}
	return cfg
}

// TestPolicyParseRoundTrip pins String ↔ ParsePolicy for every policy: the
// CLI flags parse with ParsePolicy, so an unknown name must be an error, not
// a silent LRU default.
func TestPolicyParseRoundTrip(t *testing.T) {
	for _, p := range allPolicies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
		// Case-insensitive: flags are typed by hand.
		if got, err := ParsePolicy(strings.ToLower(p.String())); err != nil || got != p {
			t.Errorf("ParsePolicy(lower %q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, bad := range []string{"", "lru2", "MRU", "policy(3)", "rrip"} {
		if p, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted as %v; want error", bad, p)
		}
	}
	if !strings.Contains(PolicyNames(), "DRRIP") || !strings.Contains(PolicyNames(), "LRU") {
		t.Errorf("PolicyNames() = %q missing policies", PolicyNames())
	}
}

// TestPolicyValidate is the table-driven validation matrix for the policy
// zoo: unknown values, missing seeds for every stochastic policy, and the
// structural restrictions (fully-associative stores, DeadBlock).
func TestPolicyValidate(t *testing.T) {
	for _, p := range allPolicies() {
		if err := seededCfg(p, 4).Validate(); err != nil {
			t.Errorf("%s: valid config rejected: %v", p, err)
		}
		if p.Stochastic() {
			cfg := seededCfg(p, 4)
			cfg.Seed = 0
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s: Seed 0 accepted for stochastic policy", p)
			}
		}
		cfg := seededCfg(p, 0) // fully associative
		err := cfg.Validate()
		if p == LRU || p == FIFO {
			if err != nil {
				t.Errorf("%s: fully-associative config rejected: %v", p, err)
			}
		} else if err == nil {
			t.Errorf("%s: fully-associative config accepted", p)
		}
		cfg = seededCfg(p, 4)
		cfg.DeadBlock = true
		err = cfg.Validate()
		if p.RRIP() {
			if err != nil {
				t.Errorf("%s: DeadBlock config rejected: %v", p, err)
			}
		} else if err == nil {
			t.Errorf("%s: DeadBlock accepted for non-RRIP policy", p)
		}
	}
	bad := Config{Name: "test", Size: 1024, BlockSize: 64, Assoc: 4, Policy: Policy(17)}
	if err := bad.Validate(); err == nil {
		t.Error("unknown Policy value accepted")
	}
	if !strings.Contains(Policy(17).String(), "policy(17)") {
		t.Errorf("unknown policy String() = %q", Policy(17))
	}
}

// TestSRRIPVictimSelection walks the textbook SRRIP example on one set:
// inserts land at RRPV 2, hits promote to 0, and the victim is the leftmost
// way aged to RRPV 3.
func TestSRRIPVictimSelection(t *testing.T) {
	// 256 B / 64 B / 4-way = one set of 4 ways.
	c := New(Config{Name: "srrip", Size: 256, BlockSize: 64, Assoc: 4, Policy: SRRIP})
	for b := uint64(0); b < 4; b++ {
		c.Fill(b, trace.Heap, false)
	}
	// All at RRPV 2; promote block 0 to RRPV 0.
	if !c.Access(0, trace.Heap, trace.Read) {
		t.Fatal("block 0 should hit")
	}
	// Victim: leftmost of the RRPV-2 ways — block 1, not the reused block 0.
	ev, ok := c.Fill(100, trace.Heap, false)
	if !ok || ev.BlockAddr != 1 {
		t.Fatalf("SRRIP evicted %+v, want block 1", ev)
	}
	if !c.Contains(0) {
		t.Fatal("reused block evicted by SRRIP")
	}
	// Aging ran: block 0 is now RRPV 1, blocks 2,3 at RRPV 3, the fresh
	// block 100 at RRPV 2. Next fill evicts block 2 (leftmost RRPV 3).
	ev, ok = c.Fill(101, trace.Heap, false)
	if !ok || ev.BlockAddr != 2 {
		t.Fatalf("SRRIP second eviction %+v, want block 2", ev)
	}
}

// TestBRRIPBimodalInsertion checks BRRIP inserts mostly at "distant" with a
// seeded minority at "long", and that the stream is a pure function of Seed.
func TestBRRIPBimodalInsertion(t *testing.T) {
	mk := func(seed uint64) (*Cache, map[uint64]int) {
		c := New(Config{Name: "brrip", Size: 256, BlockSize: 64, Assoc: 4, Policy: BRRIP, Seed: seed})
		counts := map[uint64]int{}
		for b := uint64(0); b < 400; b++ {
			c.Fill(b, trace.Heap, false)
			counts[c.stamps[c.lastIdx]]++
		}
		return c, counts
	}
	_, counts := mk(3)
	if counts[rrpvMax] == 0 || counts[rrpvLong] == 0 {
		t.Fatalf("BRRIP insertion not bimodal: %v", counts)
	}
	if counts[rrpvMax] < counts[rrpvLong] {
		t.Fatalf("BRRIP should insert mostly distant: %v", counts)
	}
	a, _ := mk(3)
	b, _ := mk(3)
	if a.stamps[0] != b.stamps[0] || a.tags[0] != b.tags[0] || a.Stats != b.Stats {
		t.Fatal("same-seed BRRIP runs diverged")
	}
}

// TestDRRIPSetDueling drives misses into the two leader-set families and
// checks PSEL votes move the right way.
func TestDRRIPSetDueling(t *testing.T) {
	// 16 KiB / 64 B / 4-way = 64 sets: sets 0,32 are SRRIP leaders, sets
	// 17,49 BRRIP leaders under the duelMask constituency.
	c := New(Config{Name: "drrip", Size: 16 << 10, BlockSize: 64, Assoc: 4, Policy: DRRIP, Seed: 9})
	p0 := c.psel
	for i := uint64(0); i < 32; i++ {
		c.Fill(i*64, trace.Heap, false) // block i*64 → set 0 (mod 64)
	}
	if c.psel <= p0 {
		t.Fatalf("SRRIP-leader misses should raise PSEL: %d -> %d", p0, c.psel)
	}
	up := c.psel
	for i := uint64(0); i < 64; i++ {
		c.Fill(i*64+17, trace.Heap, false) // set 17: BRRIP leader
	}
	if c.psel >= up {
		t.Fatalf("BRRIP-leader misses should lower PSEL: %d -> %d", up, c.psel)
	}
}

// TestDeadBlockInsertion trains the dead-block table by streaming a block
// through without reuse and checks its next arrival is inserted "distant",
// while a reused block keeps its normal insertion.
func TestDeadBlockInsertion(t *testing.T) {
	cfg := Config{Name: "db", Size: 256, BlockSize: 64, Assoc: 4, Policy: SRRIP, DeadBlock: true}
	c := New(cfg)
	dead := uint64(42)
	// Two fill→evict round trips with no intervening hit push the counter
	// to dbDeadAt.
	for round := 0; round < 2; round++ {
		c.Fill(dead, trace.Shard, false)
		for b := uint64(100 + 10*round); c.Contains(dead); b++ {
			c.Fill(b, trace.Shard, false)
		}
	}
	if got := c.db[dbHash(dead)]; got < dbDeadAt {
		t.Fatalf("dead-block counter %d after two dead round trips, want >= %d", got, dbDeadAt)
	}
	c.Fill(dead, trace.Shard, false)
	if c.stamps[c.lastIdx] != rrpvMax {
		t.Fatalf("predicted-dead block inserted at RRPV %d, want %d", c.stamps[c.lastIdx], rrpvMax)
	}
	// A reused block trains the counter back down.
	c2 := New(cfg)
	live := uint64(7)
	for round := 0; round < 3; round++ {
		c2.Fill(live, trace.Heap, false)
		c2.Access(live, trace.Heap, trace.Read)
		for b := uint64(200 + 10*round); c2.Contains(live); b++ {
			c2.Fill(b, trace.Heap, false)
		}
	}
	if got := c2.db[dbHash(live)]; got >= dbDeadAt {
		t.Fatalf("reused block predicted dead (counter %d)", got)
	}
	c2.Fill(live, trace.Heap, false)
	if c2.stamps[c2.lastIdx] != rrpvLong {
		t.Fatalf("live block inserted at RRPV %d, want %d", c2.stamps[c2.lastIdx], rrpvLong)
	}
}

// checkLineBuffer asserts the line-buffer invariant (cache.go): lastBlock is
// either invalid or actually resident at lastIdx. A violation means a future
// probe of the stale block would return a false hit — silently wrong MPKI.
func checkLineBuffer(t *testing.T, c *Cache, op string) {
	t.Helper()
	if c.lastBlock == invalidTag {
		return
	}
	if int(c.lastIdx) >= len(c.tags) || c.tags[c.lastIdx] != c.lastBlock {
		t.Fatalf("%s: line buffer stale: lastBlock=%d lastIdx=%d tags[lastIdx]=%d",
			op, c.lastBlock, c.lastIdx, c.tags[c.lastIdx])
	}
}

// TestLineBufferInvalidatedOnEviction is the staleness regression the policy
// zoo could have introduced: evict the most recently hit block (the one the
// line buffer points at) through every replacement policy and immediately
// re-probe it — a stale buffer would return a false hit.
func TestLineBufferInvalidatedOnEviction(t *testing.T) {
	for _, p := range allPolicies() {
		cfg := seededCfg(p, 4)
		cfg.Size = 256 // one 4-way set
		if p.RRIP() {
			cfg.DeadBlock = true // exercise the reuse-bit path too
		}
		c := New(cfg)
		for b := uint64(0); b < 4; b++ {
			c.Fill(b, trace.Heap, false)
		}
		for victim := uint64(0); victim < 4; victim++ {
			// Make the line buffer point at the victim...
			if !c.Access(victim, trace.Heap, trace.Read) {
				continue // already evicted by a previous iteration
			}
			// ...then force evictions until it leaves the set.
			for b := uint64(100 * (victim + 1)); c.Contains(victim); b++ {
				c.Fill(b, trace.Heap, false)
				checkLineBuffer(t, c, p.String()+"/fill")
			}
			if c.Access(victim, trace.Heap, trace.Read) {
				t.Fatalf("%s: stale line buffer produced a false hit for evicted block %d", p, victim)
			}
			c.Fill(victim, trace.Heap, false)
		}
	}
}

// TestLineBufferInvalidatedOnInvalidate pins the Invalidate path (used by
// inclusive back-invalidation): invalidating the last-hit block must clear
// the buffer.
func TestLineBufferInvalidatedOnInvalidate(t *testing.T) {
	for _, p := range allPolicies() {
		c := New(seededCfg(p, 4))
		c.Fill(5, trace.Heap, false)
		c.Access(5, trace.Heap, trace.Read) // buffer → block 5
		if _, present := c.Invalidate(5); !present {
			t.Fatalf("%s: block 5 not present", p)
		}
		checkLineBuffer(t, c, p.String()+"/invalidate")
		if c.Access(5, trace.Heap, trace.Read) {
			t.Fatalf("%s: false hit on invalidated last-hit block", p)
		}
	}
}

// TestLineBufferInvariantUnderRandomOps hammers every policy with a random
// mix of accesses, fills and invalidations, checking the invariant after
// every operation (the audit's executable form).
func TestLineBufferInvariantUnderRandomOps(t *testing.T) {
	for _, p := range allPolicies() {
		cfg := seededCfg(p, 2)
		cfg.Size = 512 // 4 sets × 2 ways: high conflict pressure
		c := New(cfg)
		rng := stats.NewRNG(uint64(p) + 100)
		for i := 0; i < 5000; i++ {
			block := rng.Uint64n(64)
			op := "access"
			switch rng.Intn(3) {
			case 0:
				if !c.Access(block, trace.Heap, trace.Kind(rng.Intn(trace.NumKinds))) {
					c.Fill(block, trace.Heap, false)
					op = "miss-fill"
				}
			case 1:
				c.Fill(block, trace.Heap, rng.Bool(0.3))
				op = "fill"
			default:
				c.Invalidate(block)
				op = "invalidate"
			}
			checkLineBuffer(t, c, p.String()+"/"+op)
		}
	}
}

// TestHierarchyBackInvalidationClearsLineBuffer drives the full inclusive
// hierarchy path: an L3 eviction back-invalidates an L1-resident block the
// L1 line buffer points at, and the next access must miss in L1.
func TestHierarchyBackInvalidationClearsLineBuffer(t *testing.T) {
	cfg := tinyHierarchy(1, nil) // L3Inclusive is set by the helper
	h := NewHierarchy(cfg)
	target := trace.Access{Addr: 0, Size: 8, Seg: trace.Heap, Kind: trace.Read}
	h.Access(target) // L1-D line buffer now points at block 0
	// Evict block 0 from the L3 (16 KiB, 64 B, 8-way → 32 sets): 8 new
	// blocks in set 0 push it out, back-invalidating the L1-D copy. The
	// interfering accesses are instruction fetches so they route through
	// the L1-I and leave the L1-D — and its line buffer — untouched.
	for i := uint64(1); i <= 8; i++ {
		h.Access(trace.Access{Addr: i * 32 * 64, Size: 8, Seg: trace.Code, Kind: trace.Fetch})
	}
	if h.l1d[0].Contains(0) {
		t.Fatal("back-invalidation did not remove the L1 copy")
	}
	checkLineBuffer(t, h.l1d[0], "back-invalidate")
	if lvl := h.Access(target); lvl == HitL1 {
		t.Fatal("stale L1 line buffer produced a false hit after back-invalidation")
	}
}

// TestZeroAccessStatsGuards locks the division guards: empty AccessStats and
// PredictorStats must report zeros, not NaN, so experiment cells for
// untouched levels render deterministically.
func TestZeroAccessStatsGuards(t *testing.T) {
	var s AccessStats
	if r := s.HitRate(); r != 0 {
		t.Errorf("empty HitRate = %v, want 0", r)
	}
	for seg := 0; seg < trace.NumSegments; seg++ {
		if r := s.SegHitRate(trace.Segment(seg)); r != 0 {
			t.Errorf("empty SegHitRate(%d) = %v, want 0", seg, r)
		}
	}
	if r := s.MPKI(0); r != 0 {
		t.Errorf("empty MPKI = %v, want 0", r)
	}
	var p PredictorStats
	for name, r := range map[string]float64{
		"CoverageRate":   p.CoverageRate(),
		"HitRate":        p.HitRate(),
		"MispredictRate": p.MispredictRate(),
		"SkipRate":       p.SkipRate(),
	} {
		if r != 0 {
			t.Errorf("empty PredictorStats.%s = %v, want 0", name, r)
		}
	}
	// A hierarchy without a predictor reports zero-valued stats too.
	h := NewHierarchy(tinyHierarchy(1, nil))
	if h.PredictorStats() != (PredictorStats{}) {
		t.Error("predictor-less hierarchy reports non-zero predictor stats")
	}
}
