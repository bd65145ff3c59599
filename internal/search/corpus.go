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
}

// GenerateCorpus synthesizes a corpus from cfg.
func GenerateCorpus(cfg CorpusConfig) *Corpus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := stats.NewRNG(cfg.Seed)
	termDist := stats.NewZipf(rng.Split(), uint64(cfg.VocabSize), termZipfSkew)
	c := &Corpus{
		cfg: cfg,
		// The truncated bounded-Pareto lengths below average about 0.7 of
		// AvgDocLen, so this is one allocation that append never regrows.
		tokens: make([]uint32, 0, cfg.NumDocs*cfg.AvgDocLen),
		offs:   make([]int, 1, cfg.NumDocs+1),
	}
	minLen := float64(cfg.AvgDocLen) / 3
	maxLen := float64(cfg.AvgDocLen) * 12
	for d := 0; d < cfg.NumDocs; d++ {
		// Bounded Pareto with alpha tuned so the mean lands near
		// AvgDocLen for these bounds.
		n := int(rng.Pareto(minLen, maxLen, 1.75))
		for i := 0; i < n; i++ {
			c.tokens = append(c.tokens, uint32(termDist.Next()))
		}
		c.offs = append(c.offs, len(c.tokens))
	}
	return c
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
// document id. Term frequencies are counted per document in a dense
// per-term counter, with a list of the terms the document touched so only
// those are visited and reset. A first pass over the corpus gives each
// term's exact document frequency, which carves one flat array into per-term
// lists, and a second pass fills them; documents are visited in id order,
// so every list comes out doc-sorted.
func buildPostings(c *Corpus) [][]posting {
	count := make([]uint32, c.cfg.VocabSize)
	touched := make([]uint32, 0, 12*c.cfg.AvgDocLen)
	// distinct counts document d's terms into count and returns the
	// distinct ones; the caller zeroes their counters before the next call.
	distinct := func(d int) []uint32 {
		touched = touched[:0]
		for _, t := range c.Doc(d) {
			if count[t] == 0 {
				touched = append(touched, t)
			}
			count[t]++
		}
		return touched
	}

	// Pass 1: document frequencies, then turned in place into each term's
	// first slot of the flat array.
	next := make([]int, c.cfg.VocabSize)
	for d := 0; d < c.NumDocs(); d++ {
		for _, t := range distinct(d) {
			next[t]++
			count[t] = 0
		}
	}
	total := 0
	for t, df := range next {
		next[t] = total
		total += df
	}

	// Pass 2: fill. Afterwards next[t] is one past term t's last slot.
	flat := make([]posting, total)
	for d := 0; d < c.NumDocs(); d++ {
		for _, t := range distinct(d) {
			flat[next[t]] = posting{doc: uint32(d), tf: count[t]}
			next[t]++
			count[t] = 0
		}
	}
	lists := make([][]posting, c.cfg.VocabSize)
	begin := 0
	for t, end := range next {
		list := flat[begin:end]
		for i := 1; i < len(list); i++ {
			if list[i].doc < list[i-1].doc {
				panic(fmt.Sprintf("search: posting list %d not sorted", t))
			}
		}
		lists[t], begin = list, end
	}
	return lists
}
