package cache

import "fmt"

// This file implements cache-level prediction after Jalili & Erez ("Reducing
// Load Latency with Cache Level Prediction", PAPERS.md): a small tag-indexed
// table of saturating counters predicts which hierarchy level will service an
// L1 miss. Confident predictions of L3/L4 jump straight to that level and
// verify with a single probe; confident memory predictions bypass the caches
// outright, with the in-flight presence check (the hardware runs it in
// parallel with memory scheduling, off the serial probe path) catching
// resident blocks. Mispredictions fall back to the full probe chain.
//
// Level prediction changes where the hardware looks *first*, never where the
// data lives: a jump that verifies services the same block the serial chain
// would have found, and every fill lands exactly where the chain's would. So
// the simulator keeps the functional probe chain (the upper's missPath and the
// tail's L4) authoritative —
// contents, per-level hit/miss statistics, and memory traffic are identical
// predictor-on and predictor-off, byte for byte — and the predictor overlays
// *probe accounting* on top: which serial probes a verified prediction
// avoided, and what failed verifications cost. That is also the determinism
// argument: the overlay adds no randomness and no state that depends on how
// the stream is cut into batches. Because it writes no cache state, the
// predictor lives in the Tail and runs over the upper's L1-miss records after
// each drain (Tail.predict). See DESIGN.md §11.

// PredictorConfig configures the hierarchy's cache-level predictor.
type PredictorConfig struct {
	// TableBits is log2 of the prediction-table entry count (0 selects the
	// default of 14, i.e. 16384 entries; valid range 4..24).
	TableBits uint
	// ConfThreshold is the saturating-counter confidence (0..3) a matching
	// entry needs before its prediction is acted on. 0 selects the default
	// of 2; higher values trade coverage for fewer mispredictions.
	ConfThreshold uint8
	// Seed perturbs the table hash so independent runs disagree only where
	// aliasing does; 0 is a valid (unsalted) seed.
	Seed uint64
	// IndexBlock keys the table by the missing block address instead of
	// the default per-PC key (the thread's most recent instruction-fetch
	// block — the trace carries no program counter, and the last fetch
	// block identifies the code that issued the access). Per-PC is the
	// paper's choice: a scan loop's single PC predicts "memory" for every
	// new block it touches, which per-block keys can never do.
	IndexBlock bool
}

// predictor defaults and limits.
const (
	predDefaultBits = 14
	predDefaultConf = 2
	predConfMax     = 3
	predMinBits     = 4
	predMaxBits     = 24
)

// Validate reports whether the predictor configuration is consistent.
func (pc PredictorConfig) Validate() error {
	if pc.TableBits != 0 && (pc.TableBits < predMinBits || pc.TableBits > predMaxBits) {
		return fmt.Errorf("predictor: TableBits %d out of range [%d,%d] (0 = default %d)",
			pc.TableBits, predMinBits, predMaxBits, predDefaultBits)
	}
	if pc.ConfThreshold > predConfMax {
		return fmt.Errorf("predictor: ConfThreshold %d out of range [0,%d]", pc.ConfThreshold, predConfMax)
	}
	return nil
}

// withDefaults fills zero fields with the default table geometry.
func (pc PredictorConfig) withDefaults() PredictorConfig {
	if pc.TableBits == 0 {
		pc.TableBits = predDefaultBits
	}
	if pc.ConfThreshold == 0 {
		pc.ConfThreshold = predDefaultConf
	}
	return pc
}

// PredictorStats counts the level predictor's outcomes. All fields count
// post-L1 block probes (the only accesses the predictor sees).
type PredictorStats struct {
	// Lookups is the number of predictions consulted (every L1 miss).
	Lookups int64
	// Jumps is the number of confident L3/L4 predictions acted on;
	// Bypasses the number of confident memory predictions acted on.
	Jumps, Bypasses int64
	// Verified counts jumps/bypasses the access's actual servicing level
	// confirmed; Mispredicts counts the rest (which fall back to the full
	// probe chain after the wasted verification).
	Verified, Mispredicts int64
	// ProbesPerformed and ProbesBaseline count, over the acted-on
	// predictions only, the serial post-L1 cache probes the predicted
	// hardware issues vs. what the full L2→L3(→L4) chain issues for the
	// same accesses (a verified jump issues one, a verified bypass none, a
	// mispredict the wasted verify plus the full chain). Their ratio is
	// the probe-skip rate where the mechanism engages; multiply by
	// CoverageRate's probe share for whole-stream savings. Unacted lookups
	// run the chain untouched and contribute to neither counter.
	ProbesPerformed, ProbesBaseline int64
}

// CoverageRate is the fraction of lookups that produced a confident,
// actionable prediction, or 0 with no lookups.
func (s PredictorStats) CoverageRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Jumps+s.Bypasses) / float64(s.Lookups)
}

// HitRate is the fraction of acted-on predictions that verified, or 0 when
// none were acted on.
func (s PredictorStats) HitRate() float64 {
	acted := s.Jumps + s.Bypasses
	if acted == 0 {
		return 0
	}
	return float64(s.Verified) / float64(acted)
}

// MispredictRate is the fraction of lookups whose acted-on prediction failed
// verification, or 0 with no lookups.
func (s PredictorStats) MispredictRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Lookups)
}

// SkipRate is the fraction of baseline chain probes the predictor avoided
// across the acted-on predictions (negative if mispredictions cost more
// probes than jumps saved), or 0 with no baseline probes. Whole-stream
// savings are this times the acted-on share of traffic (CoverageRate,
// weighted by chain depth).
func (s PredictorStats) SkipRate() float64 {
	if s.ProbesBaseline == 0 {
		return 0
	}
	return 1 - float64(s.ProbesPerformed)/float64(s.ProbesBaseline)
}

// levelPredictor is the tag-indexed counter table. Entry i predicts that
// keys hashing to i will be serviced by level[i], with conf[i] confidence;
// the 16-bit partial tag filters most aliases.
type levelPredictor struct {
	cfg   PredictorConfig
	shift uint // 64 - TableBits: the hash's top bits index the table
	tags  []uint16
	level []uint8
	conf  []uint8

	// Stats accumulates the predictor's counters.
	Stats PredictorStats
}

// newLevelPredictor builds the table for an already-defaulted config.
func newLevelPredictor(pc PredictorConfig) *levelPredictor {
	n := 1 << pc.TableBits
	return &levelPredictor{
		cfg:   pc,
		shift: 64 - pc.TableBits,
		tags:  make([]uint16, n),
		level: make([]uint8, n),
		conf:  make([]uint8, n),
	}
}

// slot hashes a key to its table index and partial tag. One multiplicative
// hash provides both: the top bits index (well-mixed by the multiply), a
// middle slice tags. Entries start conf==0, so a fresh table acts on nothing
// even where a zero tag happens to match.
func (p *levelPredictor) slot(key uint64) (int, uint16) {
	x := (key ^ p.cfg.Seed) * 0x9e3779b97f4a7c15
	return int(x >> p.shift), uint16(x >> 24)
}

// lookup returns the prediction for key and whether it is confident enough
// to act on. The bar is asymmetric because the mispredict costs are: a wrong
// bypass is caught by the parallel presence check at no serial cost, so
// memory predictions act at the configured threshold, while a wrong jump
// wastes a serial verification probe, so cache-level predictions act only at
// counter saturation. It counts the lookup either way; train must be called
// with the access's actual level.
func (p *levelPredictor) lookup(key uint64) (HitLevel, bool) {
	p.Stats.Lookups++
	i, tag := p.slot(key)
	if p.tags[i] != tag {
		return 0, false
	}
	lvl := HitLevel(p.level[i])
	need := uint8(predConfMax)
	if lvl == HitMemory {
		need = p.cfg.ConfThreshold
	}
	return lvl, p.conf[i] >= need
}

// train updates key's entry with the observed servicing level: confirmations
// climb the saturating counter, contradictions drain it and retarget the
// level once empty. Aliases (tag mismatch) drain the incumbent before taking
// the entry over, so a hot entry is not evicted by one stray key.
func (p *levelPredictor) train(key uint64, actual HitLevel) {
	i, tag := p.slot(key)
	switch {
	case p.tags[i] != tag:
		if p.conf[i] > 0 {
			p.conf[i]--
			return
		}
		p.tags[i] = tag
		p.level[i] = uint8(actual)
		p.conf[i] = 1
	case HitLevel(p.level[i]) == actual:
		if p.conf[i] < predConfMax {
			p.conf[i]++
		}
	case p.conf[i] > 0:
		p.conf[i]--
	default:
		p.level[i] = uint8(actual)
		p.conf[i] = 1
	}
}

// chainProbes returns how many post-L1 probes the full chain issues for an
// access serviced at lvl (memory probes every cache level on the way down).
func (t *Tail) chainProbes(lvl HitLevel) int64 {
	switch lvl {
	case HitL2:
		return 1
	case HitL3:
		return 2
	case HitL4:
		return 3
	default:
		return t.memProbes
	}
}

// predict runs the level predictor over one drained port's L1-miss records,
// in order: lookup, classify against the servicing level, train. The
// functional probe chain (the upper's missPath and this tail's L4) was
// authoritative; the predictor overlays probe accounting on its outcome. A
// record the upper serviced below the L3 takes the next demand outcome of
// this drain (each such miss logged exactly one demand event). A confident
// L3/L4 prediction that matches the actual servicing level is a verified
// jump — one serial probe (the verification at the target) instead of the
// chain's walk, with PredSkips recorded at the levels whose probes it
// avoided and a PredHit at the target. A confident memory prediction that
// the access confirms is a verified bypass — zero serial probes; the
// presence check that guards against resident blocks runs in parallel with
// memory scheduling, off the serial path, like the L4's own lookup (§IV-C).
// A confident prediction the access contradicts is a mispredict: a
// cache-level prediction wasted its verification probe and then walked the
// full chain (one extra probe); a memory prediction was caught by the
// parallel check at no extra serial cost. The predictor is trained with the
// actual servicing level on every record.
func (t *Tail) predict(misses []l1Miss) {
	p := t.pred
	below := t.below
	for i := range misses {
		m := &misses[i]
		key := m.pc
		if t.indexBlock {
			key = m.block
		}
		pred, confident := p.lookup(key)
		if pred == HitL4 && t.l4 == nil {
			pred = HitMemory // stale L4 prediction on a hierarchy without one
		}
		actual := m.level
		if actual == HitMemory {
			actual, below = below[0], below[1:]
		}
		base := t.chainProbes(actual)
		switch {
		case !confident || pred <= HitL2:
			// No confident prediction, or it names the level the chain starts
			// at anyway: the serial chain ran as-is, nothing was attempted.
		case pred == actual:
			p.Stats.ProbesBaseline += base
			p.Stats.Verified++
			if pred == HitMemory {
				p.Stats.Bypasses++
				t.l2Pred.skips++
				t.l3Pred.skips++
				if t.l4 != nil {
					t.l4.Stats.PredSkips++
				}
			} else {
				p.Stats.Jumps++
				p.Stats.ProbesPerformed++ // the single verification probe
				t.l2Pred.skips++
				if pred == HitL4 {
					t.l3Pred.skips++
					t.l4.Stats.PredHits++
				} else {
					t.l3Pred.hits++
				}
			}
		case pred == HitMemory:
			// Wrong bypass, caught by the parallel presence check: the access
			// is serviced by the level that holds the block at the chain's
			// ordinary serial cost.
			p.Stats.Bypasses++
			p.Stats.Mispredicts++
			p.Stats.ProbesBaseline += base
			p.Stats.ProbesPerformed += base
			switch actual {
			case HitL2:
				t.l2Pred.mispredicts++
			case HitL4:
				t.l4.Stats.PredMispredicts++
			default:
				t.l3Pred.mispredicts++
			}
		default:
			// Wrong jump: the verification probe at the predicted level missed
			// (or the block was already serviced above it), then the full
			// chain ran — one wasted serial probe. Charged to the predicted
			// level, whose probe was the wasted one.
			p.Stats.Jumps++
			p.Stats.Mispredicts++
			p.Stats.ProbesBaseline += base
			p.Stats.ProbesPerformed += base + 1
			if pred == HitL4 {
				t.l4.Stats.PredMispredicts++
			} else {
				t.l3Pred.mispredicts++
			}
		}
		p.train(key, actual)
	}
	t.below = t.below[:0]
}
