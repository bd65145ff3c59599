package search

import (
	"fmt"
	"math"

	"searchmem/internal/codegen"
)

// Hot function ids pinned per engine phase: the inner loops of posting
// decode, candidate selection, and snippet generation each live in one hot
// function, while per-query orchestration walks the wider (Zipf-popular)
// service code — reproducing the paper's hot-core/large-tail code profile.
const (
	fnDecode  = 1
	fnSelect  = 2
	fnSnippet = 3
)

// Result is one query's outcome.
type Result struct {
	// Docs are the top-k documents, best first.
	Docs []uint32
	// Scores are the corresponding scores (nil when served from the
	// query cache, which stores ids only).
	Scores []float32
	// FromCache reports whether the result came from the query cache.
	FromCache bool
}

// Session is per-hardware-thread query-execution state: an accumulator
// table in the heap, a top-k selector, and an optional code walker. Sessions
// are not safe for concurrent use; create one per simulated thread.
type Session struct {
	eng    *Engine
	thread uint8
	walker *codegen.Walker

	accumBase  uint64
	accumEpoch uint32
	touched    []uint32
	topk       *TopK

	// SkipCache disables the query cache for this session (used by
	// verification oracles).
	SkipCache bool

	// Statistics.
	Queries, CacheHits int64
	PostingsDecoded    int64
	CandidatesScored   int64
	AccumDrops         int64
	instrsModeled      int64
}

// NewSession creates the n-th session (n < MaxSessions) for a hardware
// thread. walker may be nil to skip instruction-side modeling.
func (e *Engine) NewSession(thread uint8, walker *codegen.Walker) *Session {
	if e.sessions >= e.cfg.MaxSessions {
		panic(fmt.Sprintf("search: session limit %d exceeded", e.cfg.MaxSessions))
	}
	base := e.accumBase + uint64(e.sessions*e.cfg.AccumSlots*accumSlot)
	e.sessions++
	return &Session{
		eng:       e,
		thread:    thread,
		walker:    walker,
		accumBase: base,
		topk:      NewTopK(e.cfg.TopK),
	}
}

// Instructions returns the instructions retired by this session: the
// walker's count when code modeling is active, otherwise the modeled cost.
func (s *Session) Instructions() int64 {
	if s.walker != nil {
		return s.walker.Instructions
	}
	return s.instrsModeled
}

// code charges n instructions to the session. With a walker attached, a
// hotCodeFrac share of phase work (fn >= 0) runs in the phase's pinned hot
// function and the rest walks the wide Zipf-popular service code; fn < 0
// charges everything to the wide code (query orchestration).
func (s *Session) code(fn int, n int) {
	if n <= 0 {
		return
	}
	if s.walker == nil {
		s.instrsModeled += int64(n)
		return
	}
	if fn < 0 {
		s.walker.Run(n)
		return
	}
	hot := int(float64(n) * hotCodeFrac)
	if hot > 0 {
		s.walker.RunFunc(fn, hot)
	}
	if n-hot > 0 {
		s.walker.Run(n - hot)
	}
}

// hashTerms produces the query-cache tag (FNV-1a over the term ids).
func hashTerms(terms []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range terms {
		for i := 0; i < 4; i++ {
			h ^= uint64(t >> (8 * i) & 0xff)
			h *= 1099511628211
		}
	}
	if h == 0 {
		h = 1 // 0 marks an empty cache slot
	}
	return h
}

// Execute runs one query through the full pipeline: cache probe, posting
// scan + BM25 accumulation, candidate selection, feature-based final
// scoring, snippet extraction, and cache fill.
func (s *Session) Execute(terms []uint32) Result {
	s.Queries++
	e := s.eng
	// Query parse / RPC handling: wide service code, not a hot loop.
	s.code(-1, e.cfg.InstrsPerQuery/2)

	tag := hashTerms(terms)
	if !s.SkipCache {
		if docs, ok := e.cacheProbe(s.thread, tag); ok {
			s.CacheHits++
			return Result{Docs: docs, FromCache: true}
		}
	}

	// Term-at-a-time scoring into the accumulator table.
	s.accumEpoch++
	s.touched = s.touched[:0]
	for _, term := range terms {
		if term >= uint32(e.cfg.Corpus.VocabSize) {
			continue
		}
		off, df, _ := e.dictEntry(s.thread, term)
		if df == 0 {
			continue
		}
		n := int(df)
		addr := e.postingsBase + off
		doc := uint32(0)
		if n > e.cfg.MaxPostingsPerTerm {
			// Long list: enter at a query-dependent skip block so bounded
			// scans cover the whole document space.
			numBlocks := (n + SkipInterval - 1) / SkipInterval
			block := SkipBlockFor(tag, term, numBlocks)
			byteOff, restart := e.skipEntry(s.thread, term, block)
			addr += byteOff
			doc = restart
			remaining := n - block*SkipInterval
			n = e.cfg.MaxPostingsPerTerm
			if n > remaining {
				n = remaining
			}
		}
		idf := e.idf(df)
		for i := 0; i < n; i++ {
			delta, k := e.shard.ReadUvarint(s.thread, addr)
			addr += uint64(k)
			tf, k2 := e.shard.ReadUvarint(s.thread, addr)
			addr += uint64(k2)
			doc += uint32(delta)
			dl := e.docLen(s.thread, doc)
			contrib := e.bm25(idf, uint32(tf), dl) * e.staticBoost(s.thread, doc)
			if !s.accumAdd(doc, contrib) {
				s.AccumDrops++
			}
			s.PostingsDecoded++
			if i&15 == 15 {
				s.code(fnDecode, 16*instrsPerPosting)
			}
		}
		s.code(fnDecode, (n%16)*instrsPerPosting)
	}

	// Candidate selection over touched accumulator slots.
	s.topk.Reset()
	for i, slot := range s.touched {
		doc, score := s.accumRead(slot)
		s.topk.Push(doc, score)
		s.CandidatesScored++
		if i&31 == 31 {
			s.code(fnSelect, 32*4)
		}
	}
	docs, scores := s.topk.Results()

	// Final scoring: ranking features, then snippets from the shard.
	for i, doc := range docs {
		scores[i] += e.featureBoost(s.thread, doc)
		s.code(fnSelect, e.cfg.InstrsPerScore)
	}
	sortByScore(docs, scores)
	for _, doc := range docs {
		s.snippet(doc)
	}

	if !s.SkipCache {
		e.cacheInsert(s.thread, tag, docs)
	}
	// Result assembly / response serialization: wide service code again.
	s.code(-1, e.cfg.InstrsPerQuery/2)
	return Result{Docs: docs, Scores: scores}
}

// sortByScore reorders the (docs, scores) pairs best-first after the
// feature boost (insertion sort: k is small).
func sortByScore(docs []uint32, scores []float32) {
	for i := 1; i < len(docs); i++ {
		d, sc := docs[i], scores[i]
		j := i - 1
		for j >= 0 && (scores[j] < sc || (scores[j] == sc && docs[j] > d)) {
			docs[j+1], scores[j+1] = docs[j], scores[j]
			j--
		}
		docs[j+1], scores[j+1] = d, sc
	}
}

// snippet scans the leading content terms of a result document, emitting
// shard reads (and the snippet loop's code cost).
func (s *Session) snippet(doc uint32) {
	e := s.eng
	off, nBytes := e.contentRef(s.thread, doc)
	addr := e.contentBase + off
	end := addr + uint64(nBytes)
	for i := 0; i < snippetTerms && addr < end; i++ {
		_, k := e.shard.ReadUvarint(s.thread, addr)
		addr += uint64(k)
	}
	s.code(fnSnippet, snippetTerms*instrsPerSnippetTerm)
}

// --- accumulator table (epoch-tagged open addressing in the heap) ---

// accumAdd folds delta into doc's accumulator, claiming a slot on first
// touch. It returns false when probing exhausts (the posting is dropped,
// which production early-termination also does under pressure).
func (s *Session) accumAdd(doc uint32, delta float32) bool {
	e := s.eng
	mask := uint32(e.cfg.AccumSlots - 1)
	slot := (doc * 2654435761) & mask
	const maxProbe = 64
	for p := 0; p < maxProbe; p++ {
		addr := s.accumBase + uint64(slot)*accumSlot
		word := e.heap.ReadU64(s.thread, addr) // docID | epoch
		slotDoc := uint32(word)
		slotEpoch := uint32(word >> 32)
		if slotEpoch != s.accumEpoch {
			// Free (stale) slot: claim it.
			e.heap.WriteU64(s.thread, addr, uint64(doc)|uint64(s.accumEpoch)<<32)
			e.heap.WriteU32(s.thread, addr+8, math.Float32bits(delta))
			s.touched = append(s.touched, slot)
			return true
		}
		if slotDoc == doc {
			old := math.Float32frombits(e.heap.ReadU32(s.thread, addr+8))
			e.heap.WriteU32(s.thread, addr+8, math.Float32bits(old+delta))
			return true
		}
		slot = (slot + 1) & mask
	}
	return false
}

// accumRead returns the (doc, score) stored in a touched slot.
func (s *Session) accumRead(slot uint32) (uint32, float32) {
	addr := s.accumBase + uint64(slot)*accumSlot
	word := s.eng.heap.ReadU64(s.thread, addr)
	score := math.Float32frombits(s.eng.heap.ReadU32(s.thread, addr+8))
	return uint32(word), score
}

// --- query cache (direct-mapped, in the heap) ---

// cacheProbe looks the tag up, returning the cached result ids on a hit.
func (e *Engine) cacheProbe(tid uint8, tag uint64) ([]uint32, bool) {
	if e.cacheSlots == 0 {
		return nil, false
	}
	slotBytes := uint64(e.cacheSlotBytes())
	addr := e.cacheBase + (tag%uint64(e.cacheSlots))*slotBytes
	if e.heap.ReadU64(tid, addr) != tag {
		return nil, false
	}
	count := e.heap.ReadU32(tid, addr+8)
	if count > uint32(e.cfg.TopK) {
		return nil, false
	}
	docs := make([]uint32, count)
	for i := range docs {
		docs[i] = e.heap.ReadU32(tid, addr+12+uint64(i)*4)
	}
	return docs, true
}

// cacheInsert stores a result, overwriting whatever occupied the slot.
func (e *Engine) cacheInsert(tid uint8, tag uint64, docs []uint32) {
	if e.cacheSlots == 0 {
		return
	}
	slotBytes := uint64(e.cacheSlotBytes())
	addr := e.cacheBase + (tag%uint64(e.cacheSlots))*slotBytes
	e.heap.WriteU64(tid, addr, tag)
	e.heap.WriteU32(tid, addr+8, uint32(len(docs)))
	for i, d := range docs {
		e.heap.WriteU32(tid, addr+12+uint64(i)*4, d)
	}
}
