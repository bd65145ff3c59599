package search

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"searchmem/internal/codegen"
	"searchmem/internal/memsim"
	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// Record sizes of the serialized structures.
const (
	dictRecBytes   = 24 // postings off u64 | docFreq u32 | bytes u32 | skip off u64
	metaRecBytes   = 16 // content offset u64 | content bytes u32 | doc length u32
	staticRecBytes = 16 // pagerank-class static signals, read per candidate
	skipRecBytes   = 16 // block byte offset u64 | restart doc u32 | pad u32
	accumSlot      = 12 // docID u32 | epoch u32 | score f32
	// SkipInterval is the posting count per skip block. Long posting
	// lists are entered at a query-dependent skip block rather than
	// always at the head, so bounded scans cover the whole document
	// space (as WAND-style skipping does in production rankers).
	SkipInterval = 4096
)

// Config describes a full search-engine instance.
type Config struct {
	// Corpus is the document collection to index.
	Corpus CorpusConfig
	// MaxPostingsPerTerm bounds how much of a posting list one query
	// scans (early termination, as production rankers do).
	MaxPostingsPerTerm int
	// TopK is the number of results returned per query.
	TopK int
	// FeatureBytes is the per-document ranking-feature blob size (a
	// multiple of 8); blobs live in the heap and are read for final scoring
	// of top candidates.
	FeatureBytes int
	// AccumSlots is the per-session score-accumulator table size (a power
	// of two).
	AccumSlots int
	// MaxSessions bounds concurrent sessions (arena space for their
	// accumulators is reserved at build time).
	MaxSessions int
	// Instruction-cost model: modeled instructions charged per unit of
	// work, used to drive the code walker and to form MPKI denominators
	// (see also instrsPerPosting and instrsPerSnippetTerm).
	InstrsPerQuery int
	InstrsPerScore int
}

const (
	// queryCacheSlots sizes each engine's in-heap query result cache (a
	// power of two).
	queryCacheSlots = 1 << 12
	// snippetTerms is how many content terms are scanned per result for
	// snippet extraction.
	snippetTerms = 32
	// hotCodeFrac is the fraction of each phase's instructions spent in
	// that phase's pinned hot function; the rest walks the wide
	// (Zipf-popular) service code. It is the main calibration constant
	// for the paper's large instruction working set (L2 instruction MPKI
	// ~12 despite hot inner loops).
	hotCodeFrac float64 = 0.20
	// bm25K1 and bm25B are the BM25 parameters k1 and b.
	bm25K1, bm25B float64 = 1.2, 0.75
	// instrsPerPosting and instrsPerSnippetTerm are the instruction-cost
	// model's charges per decoded posting and per scanned snippet term.
	instrsPerPosting     = 20
	instrsPerSnippetTerm = 8
)

// DefaultConfig returns a test-sized engine configuration.
func DefaultConfig() Config {
	return Config{
		Corpus:             DefaultCorpusConfig(),
		MaxPostingsPerTerm: 4096,
		TopK:               10,
		FeatureBytes:       96,
		AccumSlots:         1 << 15,
		MaxSessions:        16,
		InstrsPerQuery:     2400,
		InstrsPerScore:     40,
	}
}

// Validate reports whether the configuration is consistent.
func (c Config) Validate() error {
	if err := c.Corpus.Validate(); err != nil {
		return err
	}
	if c.MaxPostingsPerTerm <= 0 || c.TopK <= 0 || c.FeatureBytes <= 0 {
		return fmt.Errorf("search: limits must be positive")
	}
	if c.FeatureBytes%8 != 0 {
		return fmt.Errorf("search: FeatureBytes must be a multiple of 8 (blobs are whole words)")
	}
	if c.AccumSlots <= 0 || c.AccumSlots&(c.AccumSlots-1) != 0 {
		return fmt.Errorf("search: AccumSlots must be a positive power of two")
	}
	if c.MaxSessions <= 0 || c.MaxSessions > 256 {
		return fmt.Errorf("search: MaxSessions out of range")
	}
	return nil
}

// Engine is one serving instance: an Index laid out in an instrumented
// address space — the shard read in place, the heap sections copied beside
// the query cache and accumulator tables its queries write. Query execution
// happens through Sessions.
type Engine struct {
	cfg   Config
	space *memsim.Space
	shard *memsim.Arena // posting lists + document content
	heap  *memsim.Arena // dictionary, doc metadata, features, query cache

	postingsBase uint64
	contentBase  uint64
	dictBase     uint64
	skipBase     uint64
	normsBase    uint64
	staticBase   uint64
	metaBase     uint64
	featBase     uint64
	cacheBase    uint64
	accumBase    uint64

	// cacheSlots is the query cache's size: queryCacheSlots, or 0 for none.
	cacheSlots int
	numDocs    uint32
	avgDocLen  float64
	sessions   int

	prog *codegen.Program
}

// Index is the immutable serialized image of one indexed corpus: every
// byte an Engine serves from that no query ever writes. It is a pure
// function of Config.Corpus and Config.FeatureBytes, holds no reference to
// the corpus it was built from, and may back any number of engines, built
// concurrently: NewEngine only reads it.
type Index struct {
	corpus       CorpusConfig
	featureBytes int
	avgDocLen    float64

	// Shard arena contents, which every engine reads in place: the posting
	// lists (per term: (docDelta, tf) uvarint pairs) in the first
	// postingBytes, then the document content (per document: term-id
	// uvarints).
	shard        []byte
	postingBytes int
	// Heap arena contents, in layout order.
	dict    []byte // dictRecBytes per term
	skips   []byte // skipRecBytes per SkipInterval postings of each term
	norms   []byte // one quantized length byte per document
	statics []byte // staticRecBytes per document
	meta    []byte // metaRecBytes per document
	feats   []byte // featureBytes per document
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// BuildIndex generates cfg.Corpus, inverts it and serializes the result.
// Only cfg.Corpus and cfg.FeatureBytes shape the image; the rest of cfg is
// validated and otherwise unused, so one Index serves every engine
// configuration that agrees on those two.
func BuildIndex(cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numDocs := cfg.Corpus.NumDocs
	corpus := GenerateCorpus(cfg.Corpus)
	lists := buildPostings(corpus)
	x := &Index{corpus: cfg.Corpus, featureBytes: cfg.FeatureBytes, avgDocLen: corpus.AvgDocLen()}

	// Size the posting lists exactly, in two halves of the postings, so the
	// shard, with the content the corpus sized, is one allocation with no
	// slack for a retained image to carry. The sizing also checks that every
	// list is doc-sorted.
	total := 0
	for _, list := range lists {
		total += len(list)
	}
	splitTerm := 0
	for below := 0; below < total/2; splitTerm++ {
		below += len(lists[splitTerm])
	}
	var sized [2]struct{ postingBytes, skipRecs int }
	size := func(h, lo, hi int) {
		for t := lo; t < hi; t++ {
			prev := uint32(0)
			for _, p := range lists[t] {
				if p.doc < prev {
					panic(fmt.Sprintf("search: posting list %d not sorted", t))
				}
				sized[h].postingBytes += uvarintLen(uint64(p.doc-prev)) + uvarintLen(uint64(p.tf))
				prev = p.doc
			}
			sized[h].skipRecs += (len(lists[t]) + SkipInterval - 1) / SkipInterval
		}
	}
	inHalves(func() { size(0, 0, splitTerm) }, func() { size(1, splitTerm, len(lists)) })
	postingBytes, skipRecs := sized[0].postingBytes+sized[1].postingBytes, sized[0].skipRecs+sized[1].skipRecs
	contentBytes := corpus.contentBytes
	x.shard = make([]byte, postingBytes+contentBytes)
	x.postingBytes = postingBytes
	x.skips = make([]byte, skipRecs*skipRecBytes)
	x.dict = make([]byte, len(lists)*dictRecBytes)
	x.meta = make([]byte, numDocs*metaRecBytes)
	x.norms = make([]byte, numDocs)
	x.statics = make([]byte, numDocs*staticRecBytes)
	x.feats = make([]byte, numDocs*cfg.FeatureBytes)
	// Then the caller writes postings, skips and dictionary and the two
	// random streams, and the helper content, metadata and norms, whose
	// term ids take longer to encode than the lists' small deltas.
	inHalves(func() {
		x.writeLists(lists)
		// Static document-rank records (pagerank-class signals): read for
		// every posting scored. This table is the bulk of the hot shared
		// heap working set whose reuse the paper finds is only capturable by
		// GiB-scale caches (§III-B).
		fillRandom(x.statics, cfg.Corpus.Seed^0x57a71c)
		// Ranking features: deterministic pseudo-random blobs of whole words.
		fillRandom(x.feats, cfg.Corpus.Seed^0xfea7)
	}, func() { x.writeDocs(corpus) })
	return x, nil
}

// writeLists serializes the posting lists into the front of the shard: per
// list, (docDelta, tf) uvarint pairs, with a skip entry every SkipInterval
// postings recording the byte offset and the restart document (the previous
// posting's doc, so delta decoding can resume mid-list), and the list's
// dictionary record.
func (x *Index) writeLists(lists [][]posting) {
	pos, skip := 0, 0
	for t, list := range lists {
		off, skipOff := pos, skip
		prev := uint32(0)
		for i, p := range list {
			if i%SkipInterval == 0 {
				binary.LittleEndian.PutUint64(x.skips[skip:], uint64(pos-off))
				binary.LittleEndian.PutUint32(x.skips[skip+8:], prev)
				skip += skipRecBytes
			}
			pos += binary.PutUvarint(x.shard[pos:], uint64(p.doc-prev))
			pos += binary.PutUvarint(x.shard[pos:], uint64(p.tf))
			prev = p.doc
		}
		rec := x.dict[t*dictRecBytes:]
		binary.LittleEndian.PutUint64(rec, uint64(off))
		binary.LittleEndian.PutUint32(rec[8:], uint32(len(list)))
		binary.LittleEndian.PutUint32(rec[12:], uint32(pos-off))
		binary.LittleEndian.PutUint64(rec[16:], uint64(skipOff))
	}
}

// writeDocs serializes the document content (term-id uvarints) behind the
// posting lists, each document's metadata, and the quantized
// document-length norms: one byte per document, read on every posting
// scored (so it must stay cache-resident, as real engines arrange). dl is
// reconstructed as norm << 2.
func (x *Index) writeDocs(corpus *Corpus) {
	pos := x.postingBytes
	for d := range x.norms {
		doc := corpus.Doc(d)
		start := pos
		for _, term := range doc {
			pos += binary.PutUvarint(x.shard[pos:], uint64(term))
		}
		rec := x.meta[d*metaRecBytes:]
		binary.LittleEndian.PutUint64(rec, uint64(start-x.postingBytes))
		binary.LittleEndian.PutUint32(rec[8:], uint32(pos-start))
		binary.LittleEndian.PutUint32(rec[12:], uint32(len(doc)))
		x.norms[d] = byte(QuantizedDocLen(len(doc)) >> 2)
	}
}

// fillRandom fills b, a whole number of words, with the stream seeded by
// seed.
func fillRandom(b []byte, seed uint64) {
	rng := stats.NewRNG(seed)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
}

// NewEngine lays out an engine's arenas in space. The shard arena lies over
// idx's shard bytes, read-only, and is shared with every other engine built
// from idx; the heap sections are copied, because the heap arena also holds
// what queries write. Nothing mutable is shared with idx or with other
// engines: the query cache and the per-session accumulator tables are
// private regions of this engine's heap arena. prog may be nil to skip
// instruction-side modeling. idx must have been built for cfg's Corpus and
// FeatureBytes.
func NewEngine(cfg Config, idx *Index, space *memsim.Space, prog *codegen.Program) (*Engine, error) {
	return newEngine(cfg, idx, space, prog, queryCacheSlots)
}

// newEngine is NewEngine with the query cache's slot count as an argument:
// a power of two, or 0 for no cache.
func newEngine(cfg Config, idx *Index, space *memsim.Space, prog *codegen.Program, cacheSlots int) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if idx.corpus != cfg.Corpus || idx.featureBytes != cfg.FeatureBytes {
		return nil, fmt.Errorf("search: index built for corpus %+v with %d feature bytes, engine wants %+v with %d",
			idx.corpus, idx.featureBytes, cfg.Corpus, cfg.FeatureBytes)
	}
	e := &Engine{
		cfg:        cfg,
		space:      space,
		numDocs:    uint32(cfg.Corpus.NumDocs),
		avgDocLen:  idx.avgDocLen,
		prog:       prog,
		cacheSlots: cacheSlots,
	}
	// Lay out the shard arena over the image: postings then content, each
	// still accounted as an allocation.
	e.shard = space.NewArenaOver("shard", trace.Shard, idx.shard)
	e.postingsBase = e.shard.Alloc(idx.postingBytes, 0)
	e.contentBase = e.shard.Alloc(len(idx.shard)-idx.postingBytes, 0)

	// Lay out the heap arena: dictionary, skip table, norms, static ranks,
	// doc metadata, features, query cache, then per-session accumulator
	// tables.
	cacheBytes := cacheSlots * e.cacheSlotBytes()
	accumBytes := cfg.MaxSessions * cfg.AccumSlots * accumSlot
	heapBytes := len(idx.dict) + len(idx.skips) + len(idx.meta) + len(idx.norms) + len(idx.statics) +
		len(idx.feats) + cacheBytes + accumBytes + 64*cfg.MaxSessions
	e.heap = space.NewArena("heap", trace.Heap, heapBytes)
	// place copies one section of the image to the heap's next free bytes.
	place := func(data []byte) uint64 {
		addr := e.heap.Alloc(len(data), 8)
		e.heap.WriteRaw(addr, data)
		return addr
	}
	e.dictBase = place(idx.dict)
	e.skipBase = place(idx.skips)
	e.normsBase = place(idx.norms)
	e.staticBase = place(idx.statics)
	e.metaBase = place(idx.meta)
	e.featBase = place(idx.feats)
	if cacheBytes > 0 {
		e.cacheBase = e.heap.Alloc(cacheBytes, 8)
	}
	e.accumBase = e.heap.Alloc(accumBytes, 64)
	return e, nil
}

// Build is BuildIndex followed by NewEngine, for callers that want one
// engine and no retained image.
func Build(cfg Config, space *memsim.Space, prog *codegen.Program) (*Engine, error) {
	idx, err := BuildIndex(cfg)
	if err != nil {
		return nil, err
	}
	return NewEngine(cfg, idx, space, prog)
}

// cacheSlotBytes returns the query-cache slot size: tag u64 | count u32 |
// TopK result ids, rounded up to 8.
func (e *Engine) cacheSlotBytes() int {
	n := 8 + 4 + 4*e.cfg.TopK
	return (n + 7) &^ 7
}

// dictEntry reads one term's dictionary record through the instrumented
// heap (two 8-byte reads, as a real lookup would issue; the skip-table
// offset rides in the third word, read only for long lists).
func (e *Engine) dictEntry(tid uint8, term uint32) (off uint64, docFreq, nBytes uint32) {
	addr := e.dictBase + uint64(term)*dictRecBytes
	off = e.heap.ReadU64(tid, addr)
	word := e.heap.ReadU64(tid, addr+8)
	return off, uint32(word), uint32(word >> 32)
}

// skipEntry reads skip block b of a term whose dictionary record sits at
// skipOff, returning the posting-byte offset and the restart document.
func (e *Engine) skipEntry(tid uint8, term uint32, block int) (byteOff uint64, restartDoc uint32) {
	dictAddr := e.dictBase + uint64(term)*dictRecBytes
	skipOff := e.heap.ReadU64(tid, dictAddr+16)
	addr := e.skipBase + skipOff + uint64(block)*skipRecBytes
	byteOff = e.heap.ReadU64(tid, addr)
	restartDoc = e.heap.ReadU32(tid, addr+8)
	return byteOff, restartDoc
}

// SkipBlockFor deterministically selects which skip block a query scans for
// a long posting list: a hash of the query tag and term, so results are
// reproducible and verification oracles can mirror the choice.
func SkipBlockFor(queryTag uint64, term uint32, numBlocks int) int {
	if numBlocks <= 1 {
		return 0
	}
	h := queryTag ^ (uint64(term)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return int(h % uint64(numBlocks))
}

// docLen reads one document's quantized length from the norms array (the
// hot per-posting scoring path).
func (e *Engine) docLen(tid uint8, doc uint32) uint32 {
	return uint32(e.heap.ReadU8(tid, e.normsBase+uint64(doc))) << 2
}

// QuantizedDocLen returns the engine's quantized length for a raw document
// length (exposed so verification oracles can mirror the scoring math).
func QuantizedDocLen(rawLen int) uint32 {
	n := (rawLen + 2) >> 2
	if n > 255 {
		n = 255
	}
	return uint32(n) << 2
}

// contentRef reads one document's content location.
func (e *Engine) contentRef(tid uint8, doc uint32) (off uint64, nBytes uint32) {
	addr := e.metaBase + uint64(doc)*metaRecBytes
	off = e.heap.ReadU64(tid, addr)
	nBytes = e.heap.ReadU32(tid, addr+8)
	return off, nBytes
}

// idf returns the BM25 inverse document frequency for a document frequency.
func (e *Engine) idf(docFreq uint32) float64 {
	n := float64(e.numDocs)
	df := float64(docFreq)
	return math.Log(1 + (n-df+0.5)/(df+0.5))
}

// bm25 returns one term's BM25 contribution for a document.
func (e *Engine) bm25(idf float64, tf, dl uint32) float32 {
	tfF := float64(tf)
	norm := tfF * (bm25K1 + 1) / (tfF + bm25K1*(1-bm25B+bm25B*float64(dl)/e.avgDocLen))
	return float32(idf * norm)
}

// staticBoost reads the document's static-rank record (the hot per-posting
// path) and folds it into a multiplicative score factor in [1, 1.25).
func (e *Engine) staticBoost(tid uint8, doc uint32) float32 {
	w := e.heap.ReadU64(tid, e.staticBase+uint64(doc)*staticRecBytes)
	return 1 + float32(w%64)/256
}

// featureBoost folds the first feature word of a document into a small
// deterministic score adjustment, standing in for the learned-ranking stage.
func (e *Engine) featureBoost(tid uint8, doc uint32) float32 {
	base := e.featBase + uint64(doc)*uint64(e.cfg.FeatureBytes)
	// The final ranker reads the whole blob; fold only the first word.
	e.heap.Touch(tid, base+8, e.cfg.FeatureBytes-8, trace.Read)
	w := e.heap.ReadU64(tid, base)
	return float32(w%1024) / 4096
}
