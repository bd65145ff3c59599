// Package search implements the search-engine substrate: a synthetic
// corpus, an inverted index with varint-compressed posting lists serialized
// into an instrumented shard arena, BM25 query evaluation with heap-resident
// scoring structures, top-k selection, snippet extraction, and a query
// cache.
//
// It is the workload generator of this reproduction: executing queries
// against the engine emits the shard/heap/stack address streams (via
// internal/memsim) and the code/branch streams (via internal/codegen) that
// the paper captured from production leaf servers with Pin.
package search

import (
	"fmt"
	"sort"

	"searchmem/internal/stats"
)

// termZipfSkew sets term popularity inside documents: real text is near 1.0
// (Zipf's law).
const termZipfSkew = 1.0

// CorpusConfig describes the synthetic document collection.
type CorpusConfig struct {
	// NumDocs is the number of documents in this leaf's shard.
	NumDocs int
	// VocabSize is the number of distinct terms.
	VocabSize int
	// AvgDocLen is the mean document length in terms; lengths follow a
	// bounded Pareto around it, matching the heavy tail of real corpora.
	AvgDocLen int
	// Seed drives generation.
	Seed uint64
}

// DefaultCorpusConfig returns a small but structurally realistic corpus
// suitable for tests; experiments scale NumDocs and VocabSize up.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{
		NumDocs:   20000,
		VocabSize: 30000,
		AvgDocLen: 80,
		Seed:      0x5ea7c4,
	}
}

// Validate reports whether the configuration is usable.
func (c CorpusConfig) Validate() error {
	if c.NumDocs <= 0 || c.VocabSize <= 0 || c.AvgDocLen <= 0 {
		return fmt.Errorf("search: corpus counts must be positive")
	}
	if c.NumDocs >= 1<<31 || c.VocabSize >= 1<<31 {
		return fmt.Errorf("search: corpus too large for 32-bit ids")
	}
	return nil
}

// Corpus is a generated document collection held in ordinary Go memory;
// it exists only during index construction (the paper's indexing system is
// a batch pipeline distinct from the serving system under study).
type Corpus struct {
	cfg CorpusConfig
	// tokens holds every document's term sequence back to back; document d
	// is tokens[offs[d]:offs[d+1]].
	tokens []uint32
	offs   []int
	// contentBytes is the summed uvarint size of every token: the size of
	// the shard's content section.
	contentBytes int
}

// GenerateCorpus synthesizes a corpus from cfg. Document lengths and terms
// come from two streams, so every length is drawn first, and the terms are
// drawn in two halves of the token stream, the second on a helper
// goroutine. The cut is exact because each term draw consumes exactly one
// output of the term stream: skew 1.0 is tabulated at every vocabulary, so
// the sampler's squeeze accepts every draw (stats.TestZipfSkewOneDrawsOnce).
// The second half therefore starts from a copy of the stream skipped by the
// first half's length, and the first half must end where the copy began.
func GenerateCorpus(cfg CorpusConfig) *Corpus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := stats.NewRNG(cfg.Seed)
	terms := rng.Split()
	shape := stats.NewZipfShape(uint64(cfg.VocabSize), termZipfSkew)
	// Bounded Pareto with alpha tuned so the mean lands near AvgDocLen for
	// these bounds (truncated to whole terms, about 0.7 of it).
	lengths := stats.NewParetoShape(float64(cfg.AvgDocLen)/3, float64(cfg.AvgDocLen)*12, 1.75)
	c := &Corpus{cfg: cfg, offs: make([]int, cfg.NumDocs+1)}
	for d := 1; d <= cfg.NumDocs; d++ {
		c.offs[d] = c.offs[d-1] + int(lengths.Next(rng))
	}
	c.tokens = make([]uint32, c.offs[cfg.NumDocs])
	mid := len(c.tokens) / 2
	// draw fills dst from rng and returns the tokens' encoded size.
	draw := func(dst []uint32, rng *stats.RNG) (n int) {
		for i := range dst {
			t := shape.Next(rng)
			dst[i] = uint32(t)
			n += uvarintLen(t)
		}
		return n
	}
	second := *terms
	var cut stats.RNG
	var secondBytes int
	inHalves(func() { c.contentBytes = draw(c.tokens[:mid], terms) }, func() {
		second.Skip(mid)
		cut = second
		secondBytes = draw(c.tokens[mid:], &second)
	})
	if *terms != cut {
		panic("search: a term draw consumed other than one RNG output, so the corpus cannot be cut in two")
	}
	c.contentBytes += secondBytes
	return c
}

// inHalves runs first on the caller and second on a helper goroutine, and
// returns when both have.
func inHalves(first, second func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		second()
	}()
	first()
	<-done
}

// NumDocs returns the number of documents.
func (c *Corpus) NumDocs() int { return len(c.offs) - 1 }

// Doc returns the term sequence of document d (a view; do not modify).
func (c *Corpus) Doc(d int) []uint32 { return c.tokens[c.offs[d]:c.offs[d+1]] }

// TotalTerms returns the summed document length.
func (c *Corpus) TotalTerms() int64 { return int64(len(c.tokens)) }

// AvgDocLen returns the realized mean document length.
func (c *Corpus) AvgDocLen() float64 {
	if c.NumDocs() == 0 {
		return 0
	}
	return float64(c.TotalTerms()) / float64(c.NumDocs())
}

// posting is one (document, term-frequency) pair during construction.
type posting struct {
	doc uint32
	tf  uint32
}

// buildPostings inverts the corpus into per-term posting lists sorted by
// document id, in two halves of the documents split where the token
// midpoint falls, the second on a helper goroutine. Each half keeps, per
// term, the last document it saw the term in, so a term's posting for a
// document is opened by its first occurrence there and counted up by the
// rest. A first pass gives each half its document frequencies; laid out
// term by term, first half before second, they carve one flat array into
// per-term lists, and a second pass fills each half's slots in document
// order, so every list comes out doc-sorted.
func buildPostings(c *Corpus) [][]posting {
	vocab := c.cfg.VocabSize
	split := sort.SearchInts(c.offs, len(c.tokens)/2)
	type half struct {
		lo, hi int
		seen   []uint32 // per term: 1 + the last document seen, 0 for none
		next   []int    // per term: the document frequency, then the next slot
	}
	halves := [2]*half{{lo: 0, hi: split}, {lo: split, hi: c.NumDocs()}}
	count := func(h *half) {
		h.seen, h.next = make([]uint32, vocab), make([]int, vocab)
		for d := h.lo; d < h.hi; d++ {
			for _, t := range c.Doc(d) {
				if h.seen[t] != uint32(d+1) {
					h.seen[t] = uint32(d + 1)
					h.next[t]++
				}
			}
		}
	}
	inHalves(func() { count(halves[0]) }, func() { count(halves[1]) })

	first := make([]int, vocab+1)
	for t := range vocab {
		df0, df1 := halves[0].next[t], halves[1].next[t]
		halves[0].next[t], halves[1].next[t] = first[t], first[t]+df0
		first[t+1] = first[t] + df0 + df1
	}

	flat := make([]posting, first[vocab])
	fill := func(h *half) {
		clear(h.seen)
		for d := h.lo; d < h.hi; d++ {
			for _, t := range c.Doc(d) {
				if h.seen[t] != uint32(d+1) {
					h.seen[t] = uint32(d + 1)
					flat[h.next[t]] = posting{doc: uint32(d), tf: 1}
					h.next[t]++
				} else {
					flat[h.next[t]-1].tf++
				}
			}
		}
	}
	inHalves(func() { fill(halves[0]) }, func() { fill(halves[1]) })

	lists := make([][]posting, vocab)
	for t := range lists {
		lists[t] = flat[first[t]:first[t+1]:first[t+1]]
	}
	return lists
}
