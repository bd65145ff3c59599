package search

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"testing"

	"searchmem/internal/memsim"
	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// testEngineConfig returns a small engine for fast tests.
func testEngineConfig() Config {
	cfg := DefaultConfig()
	cfg.Corpus = CorpusConfig{
		NumDocs:   2000,
		VocabSize: 3000,
		AvgDocLen: 40,
		Seed:      0x7e57,
	}
	cfg.MaxPostingsPerTerm = 512
	cfg.AccumSlots = 1 << 13
	return cfg
}

// mustBuild builds an engine in space and regenerates its corpus (the
// index does not retain it) for the verification oracles.
func mustBuild(t *testing.T, cfg Config, space *memsim.Space) (*Engine, *Corpus) {
	t.Helper()
	eng, err := Build(cfg, space, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, GenerateCorpus(cfg.Corpus)
}

func buildTestEngine(t *testing.T, rec memsim.Recorder) (*Engine, *Corpus) {
	t.Helper()
	return mustBuild(t, testEngineConfig(), memsim.NewSpace(rec))
}

// oracleSearch recomputes the expected result independently from the corpus.
func oracleSearch(e *Engine, c *Corpus, terms []uint32) []uint32 {
	type hit struct {
		doc uint32
		tf  uint32
	}
	scores := map[uint32]float32{}
	for _, term := range terms {
		var list []hit
		for d := 0; d < c.NumDocs(); d++ {
			doc := c.Doc(d)
			tf := uint32(0)
			for _, w := range doc {
				if w == term {
					tf++
				}
			}
			if tf > 0 {
				list = append(list, hit{uint32(d), tf})
			}
		}
		df := uint32(len(list))
		if df == 0 {
			continue
		}
		if len(list) > e.cfg.MaxPostingsPerTerm {
			numBlocks := (len(list) + SkipInterval - 1) / SkipInterval
			block := SkipBlockFor(hashTerms(terms), term, numBlocks)
			start := block * SkipInterval
			end := start + e.cfg.MaxPostingsPerTerm
			if end > len(list) {
				end = len(list)
			}
			list = list[start:end]
		}
		idf := e.idf(df)
		for _, h := range list {
			boost := 1 + float32(e.StaticWord(h.doc)%64)/256
			scores[h.doc] += e.bm25(idf, h.tf, QuantizedDocLen(len(c.Doc(int(h.doc))))) * boost
		}
	}
	type cand struct {
		doc   uint32
		score float32
	}
	var cands []cand
	for d, s := range scores {
		cands = append(cands, cand{d, s})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].doc < cands[j].doc
	})
	if len(cands) > e.cfg.TopK {
		cands = cands[:e.cfg.TopK]
	}
	// Feature boost and re-rank, as the engine does for its final stage.
	for i := range cands {
		cands[i].score += float32(e.FeatureWord(cands[i].doc)%1024) / 4096
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].doc < cands[j].doc
	})
	out := make([]uint32, len(cands))
	for i, cd := range cands {
		out[i] = cd.doc
	}
	return out
}

// oracleMismatch runs the oracle query set on a fresh session of eng and
// describes the first disagreement with oracleSearch, "" when there is none.
func oracleMismatch(eng *Engine, corpus *Corpus) string {
	sess := eng.NewSession(0, nil)
	sess.SkipCache = true
	rng := stats.NewRNG(21)
	for q := 0; q < 25; q++ {
		nTerms := 1 + rng.Intn(3)
		terms := make([]uint32, nTerms)
		for i := range terms {
			terms[i] = uint32(rng.Intn(eng.cfg.Corpus.VocabSize))
		}
		got := sess.Execute(terms)
		want := oracleSearch(eng, corpus, terms)
		if !slices.Equal(got.Docs, want) {
			return fmt.Sprintf("query %v:\ngot:  %v\nwant: %v", terms, got.Docs, want)
		}
	}
	if sess.AccumDrops != 0 {
		return fmt.Sprintf("accumulator dropped %d postings in a sized test", sess.AccumDrops)
	}
	return ""
}

func TestExecuteMatchesOracle(t *testing.T) {
	eng, corpus := buildTestEngine(t, nil)
	if msg := oracleMismatch(eng, corpus); msg != "" {
		t.Fatal(msg)
	}
}

func TestQueryCacheHit(t *testing.T) {
	eng, _ := buildTestEngine(t, nil)
	sess := eng.NewSession(0, nil)
	terms := []uint32{5, 17}
	first := sess.Execute(terms)
	second := sess.Execute(terms)
	if first.FromCache {
		t.Fatal("first execution hit an empty cache")
	}
	if !second.FromCache {
		t.Fatal("identical query missed the cache")
	}
	if len(second.Docs) != len(first.Docs) {
		t.Fatalf("cached result length %d != %d", len(second.Docs), len(first.Docs))
	}
	for i := range first.Docs {
		if second.Docs[i] != first.Docs[i] {
			t.Fatal("cached result differs")
		}
	}
	if sess.CacheHits != 1 {
		t.Fatalf("cache hits = %d", sess.CacheHits)
	}
}

func TestCacheDisabled(t *testing.T) {
	cfg := testEngineConfig()
	idx, err := BuildIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(cfg, idx, memsim.NewSpace(nil), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession(0, nil)
	terms := []uint32{5, 17}
	sess.Execute(terms)
	r := sess.Execute(terms)
	if r.FromCache {
		t.Fatal("disabled cache produced a hit")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []uint32 {
		eng, _ := buildTestEngine(t, nil)
		sess := eng.NewSession(0, nil)
		r := sess.Execute([]uint32{3, 9, 40})
		return r.Docs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic result size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic results")
		}
	}
}

func TestTraceEmission(t *testing.T) {
	var bySeg [trace.NumSegments]int
	var kinds [trace.NumKinds]int
	eng, _ := buildTestEngine(t, nil)
	var accs []trace.Access
	eng.space.SetRecorder(func(a trace.Access) {
		bySeg[a.Seg]++
		kinds[a.Kind]++
		accs = append(accs, a)
	})
	sess := eng.NewSession(2, nil)
	sess.Execute([]uint32{1, 2})
	if bySeg[trace.Shard] == 0 {
		t.Fatal("no shard accesses")
	}
	if bySeg[trace.Heap] == 0 {
		t.Fatal("no heap accesses")
	}
	if kinds[trace.Read] == 0 || kinds[trace.Write] == 0 {
		t.Fatal("missing read or write accesses")
	}
	for _, a := range accs {
		if a.Thread != 2 {
			t.Fatalf("access from wrong thread: %+v", a)
		}
	}
}

func TestPostingScanIsSequential(t *testing.T) {
	// Within one term's scan, shard posting reads move strictly forward —
	// the spatial locality the paper attributes to shard accesses.
	eng, _ := buildTestEngine(t, nil)
	var shardReads []uint64
	eng.space.SetRecorder(func(a trace.Access) {
		if a.Seg == trace.Shard {
			shardReads = append(shardReads, a.Addr)
		}
	})
	sess := eng.NewSession(0, nil)
	sess.SkipCache = true
	sess.Execute([]uint32{1}) // single popular term: one scan + snippets
	if len(shardReads) < 10 {
		t.Fatalf("only %d shard reads", len(shardReads))
	}
	// The scan phase (before snippets) must be monotonically increasing;
	// count order violations across the whole stream and require them to
	// be limited to snippet jumps (top-k of them at most, plus 1).
	violations := 0
	for i := 1; i < len(shardReads); i++ {
		if shardReads[i] < shardReads[i-1] {
			violations++
		}
	}
	if violations > eng.cfg.TopK+1 {
		t.Fatalf("%d order violations in shard stream", violations)
	}
}

func TestSessionLimit(t *testing.T) {
	cfg := testEngineConfig()
	cfg.MaxSessions = 2
	space := memsim.NewSpace(nil)
	eng, _ := mustBuild(t, cfg, space)
	eng.NewSession(0, nil)
	eng.NewSession(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("session limit not enforced")
		}
	}()
	eng.NewSession(2, nil)
}

func TestStatsAccounting(t *testing.T) {
	eng, _ := buildTestEngine(t, nil)
	sess := eng.NewSession(0, nil)
	sess.SkipCache = true
	sess.Execute([]uint32{1, 2, 3})
	if sess.Queries != 1 {
		t.Fatalf("queries = %d", sess.Queries)
	}
	if sess.PostingsDecoded == 0 || sess.CandidatesScored == 0 {
		t.Fatalf("no work recorded: %+v", sess)
	}
	if sess.Instructions() == 0 {
		t.Fatal("no instructions modeled")
	}
}

func TestOutOfVocabTermIgnored(t *testing.T) {
	eng, _ := buildTestEngine(t, nil)
	sess := eng.NewSession(0, nil)
	sess.SkipCache = true
	r := sess.Execute([]uint32{1 << 30})
	if len(r.Docs) != 0 {
		t.Fatalf("out-of-vocab query returned %d docs", len(r.Docs))
	}
}

func TestFootprintsPopulated(t *testing.T) {
	eng, corpus := buildTestEngine(t, nil)
	space := eng.space
	if space.FootprintBytes(trace.Shard) == 0 {
		t.Fatal("no shard footprint")
	}
	if space.FootprintBytes(trace.Heap) == 0 {
		t.Fatal("no heap footprint")
	}
	if eng.shard.Size() <= 0 || eng.heap.Size() <= 0 {
		t.Fatal("arena sizes unset")
	}
	// The serialized shard must hold at least ~1 byte per corpus term
	// (postings + content).
	if int64(eng.shard.Size()) < corpus.TotalTerms() {
		t.Fatalf("shard %d bytes too small for %d corpus terms", eng.shard.Size(), corpus.TotalTerms())
	}
}

func TestCorpusValidate(t *testing.T) {
	bad := []CorpusConfig{
		{},
		{NumDocs: 10, VocabSize: 0, AvgDocLen: 10},
		{NumDocs: 1 << 31, VocabSize: 10, AvgDocLen: 10},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestConfigValidateEngine(t *testing.T) {
	bad := []func(Config) Config{
		func(c Config) Config { c.AccumSlots = 100; return c },
		func(c Config) Config { c.TopK = 0; return c },
		func(c Config) Config { c.MaxSessions = 0; return c },
	}
	for i, mut := range bad {
		if err := mut(testEngineConfig()).Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := testEngineConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCorpusStats(t *testing.T) {
	c := GenerateCorpus(CorpusConfig{NumDocs: 500, VocabSize: 1000, AvgDocLen: 60, Seed: 9})
	if c.NumDocs() != 500 {
		t.Fatalf("doc count %d", c.NumDocs())
	}
	avg := c.AvgDocLen()
	if avg < 20 || avg > 200 {
		t.Fatalf("avg doc len %v implausible for target 60", avg)
	}
}

func TestHashTermsNonZeroAndSensitive(t *testing.T) {
	if hashTerms([]uint32{}) == 0 || hashTerms([]uint32{0}) == 0 {
		t.Fatal("hash returned reserved 0")
	}
	if hashTerms([]uint32{1, 2}) == hashTerms([]uint32{2, 1}) {
		t.Fatal("hash insensitive to order")
	}
}

func TestSkipListEntry(t *testing.T) {
	// A corpus where one term's posting list far exceeds SkipInterval, so
	// bounded scans must enter via the skip table.
	cfg := DefaultConfig()
	cfg.Corpus = CorpusConfig{
		NumDocs:   SkipInterval*3 + 500,
		VocabSize: 1200,
		AvgDocLen: 18,
		Seed:      0x51a9,
	}
	cfg.MaxPostingsPerTerm = 256
	cfg.AccumSlots = 1 << 12
	space := memsim.NewSpace(nil)
	eng, corpus := mustBuild(t, cfg, space)

	// Find a term with df > SkipInterval (term 0 is the most popular).
	var longTerm uint32 = 0
	_, df, _ := eng.dictEntry(0, longTerm)
	if int(df) <= SkipInterval {
		t.Fatalf("setup: most popular term df=%d, need > %d", df, SkipInterval)
	}

	sess := eng.NewSession(0, nil)
	sess.SkipCache = true
	got := sess.Execute([]uint32{longTerm})
	want := oracleSearch(eng, corpus, []uint32{longTerm})
	if len(got.Docs) != len(want) {
		t.Fatalf("sizes differ: %d vs %d", len(got.Docs), len(want))
	}
	for i := range want {
		if got.Docs[i] != want[i] {
			t.Fatalf("rank %d: %d vs %d", i, got.Docs[i], want[i])
		}
	}
	// Different queries sharing the term should enter different blocks:
	// verify at least two distinct entry docs across query variations.
	entries := map[int]bool{}
	for q := uint32(0); q < 12; q++ {
		tag := hashTerms([]uint32{longTerm, 1000 + q})
		numBlocks := (int(df) + SkipInterval - 1) / SkipInterval
		entries[SkipBlockFor(tag, longTerm, numBlocks)] = true
	}
	if len(entries) < 2 {
		t.Fatalf("skip-block selection degenerate: %v", entries)
	}
}

func TestSkipBlockForBounds(t *testing.T) {
	for _, nb := range []int{1, 2, 7, 100} {
		for tag := uint64(0); tag < 50; tag++ {
			b := SkipBlockFor(tag, 7, nb)
			if b < 0 || b >= nb {
				t.Fatalf("block %d out of [0,%d)", b, nb)
			}
		}
	}
	if SkipBlockFor(99, 1, 0) != 0 || SkipBlockFor(99, 1, 1) != 0 {
		t.Fatal("degenerate block counts must return 0")
	}
}

// StaticWord returns doc's first static-rank word without recording
// (verification oracles).
func (e *Engine) StaticWord(doc uint32) uint64 {
	return binary.LittleEndian.Uint64(e.heap.ReadRaw(e.staticBase+uint64(doc)*staticRecBytes, 8))
}

// FeatureWord returns the first feature word of doc without recording
// (verification/diagnostics only).
func (e *Engine) FeatureWord(doc uint32) uint64 {
	return binary.LittleEndian.Uint64(e.heap.ReadRaw(e.featBase+uint64(doc)*uint64(e.cfg.FeatureBytes), 8))
}
