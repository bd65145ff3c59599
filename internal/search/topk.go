package search

import "math"

// TopK maintains the k highest-scoring (doc, score) pairs seen, with
// deterministic tie-breaking (lower document id wins a score tie).
//
// Each candidate is packed into one uint64 key (ResultKey) whose unsigned
// order is the ranking, so (score desc, doc asc) is a single compare. The
// selector holds k key slots sorted best-first; an empty slot holds 0, which
// no candidate's key is, so it sorts below every candidate. One selection
// loop (PushKeys) serves every entry point: a key no better than the weakest
// slot is rejected with one compare, any other is inserted by one
// branch-free pass over the k slots, which shifts the weaker keys down and
// drops the weakest. Push feeds the same loop a batch of one, and draining
// unpacks the filled slots in order.
//
// Score edge semantics, pinned by the tests: -0 ties with +0 and comes back
// as +0; every NaN ranks below every number, -Inf included, ties with every
// other NaN (the lower doc id wins) and comes back as a NaN.
//
// An insertion costs O(k), which suits the small k every caller uses.
type TopK struct {
	keys []uint64 // k slots, best first; 0 marks an empty slot
}

// NewTopK returns an empty selector for k results.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("search: TopK requires k > 0")
	}
	return &TopK{keys: make([]uint64, k)}
}

const signBit = 1 << 31

// nanRank is the score half of every NaN's key: below -Inf's (0x007fffff),
// and no number maps below it.
const nanRank = 1

// ResultKey packs a candidate into the key the selector orders by: the high
// 32 bits are the score's bits under an order-preserving transform, the low
// 32 bits are ^doc, so a bigger key is a better result.
func ResultKey(doc uint32, score float32) uint64 {
	return uint64(scoreRank(score))<<32 | uint64(^doc)
}

// scoreRank maps a score to 32 bits whose unsigned order is the score's
// order: the sign bit is flipped on a positive score, and a negative one is
// complemented so a larger magnitude ranks lower.
func scoreRank(score float32) uint32 {
	b := math.Float32bits(score)
	switch {
	case b<<1 > 0xff<<24: // NaN: exponent all ones, mantissa nonzero
		return nanRank
	case b<<1 == 0: // -0 ties with +0
		return signBit
	}
	return b ^ (uint32(int32(b)>>31) | signBit)
}

// rankScore inverts scoreRank's fold (a NaN comes back as a negative quiet
// NaN).
func rankScore(r uint32) float32 {
	return math.Float32frombits(r ^ (uint32(int32(^r)>>31) | signBit))
}

// Reset empties the selector for reuse.
func (t *TopK) Reset() {
	clear(t.keys)
}

// Push offers one candidate.
func (t *TopK) Push(doc uint32, score float32) {
	key := [1]uint64{ResultKey(doc, score)}
	t.PushKeys(key[:])
}

// PushKeys offers a batch of candidates packed by ResultKey. It is the
// selection loop; Push is the batch of one.
func (t *TopK) PushKeys(keys []uint64) {
	kept := t.keys
	last := len(kept) - 1
	for _, key := range keys {
		// A key no better than the weakest kept one would leave every slot
		// as it is; the reject test only skips that pass.
		if key <= kept[last] {
			continue
		}
		// Slot j keeps its key if that still ranks above the new one, and
		// otherwise takes the new key or slot j-1's, whichever ranks lower.
		// Run weakest first, so slot j-1 is read before it is rewritten.
		for j := last; j > 0; j-- {
			kept[j] = max(kept[j], min(kept[j-1], key))
		}
		kept[0] = max(kept[0], key)
	}
}

// count returns the number of results kept: the filled slots precede the
// empty ones.
func (t *TopK) count() int {
	n := 0
	for n < len(t.keys) && t.keys[n] != 0 {
		n++
	}
	return n
}

// Results returns the kept results ordered best-first, emptying the
// selector.
func (t *TopK) Results() (docs []uint32, scores []float32) {
	n := t.count()
	docs = make([]uint32, n)
	scores = make([]float32, n)
	t.ResultsInto(docs, scores)
	return docs, scores
}

// ResultsInto drains the kept results best-first into the caller's buffers
// (whose lengths must be at least the number kept) and returns the result
// count. It is the zero-allocation counterpart of Results, used by the
// serving tier's pooled merge path. The ordering is identical to Results.
func (t *TopK) ResultsInto(docs []uint32, scores []float32) int {
	n := t.count()
	if len(docs) < n || len(scores) < n {
		panic("search: ResultsInto buffers smaller than the kept results")
	}
	for i, key := range t.keys[:n] {
		docs[i] = ^uint32(key)
		scores[i] = rankScore(uint32(key >> 32))
	}
	clear(t.keys[:n])
	return n
}
