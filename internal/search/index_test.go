package search

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"searchmem/internal/memsim"
	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// refBuildPostings is the inverter Build used before the dense-counter
// rewrite — a per-document scratch map and per-term append — kept as the
// reference buildPostings is compared against.
func refBuildPostings(c *Corpus) [][]posting {
	lists := make([][]posting, c.cfg.VocabSize)
	tfs := make(map[uint32]uint32, c.cfg.AvgDocLen)
	for d := 0; d < c.NumDocs(); d++ {
		for k := range tfs {
			delete(tfs, k)
		}
		for _, t := range c.Doc(d) {
			tfs[t]++
		}
		// Map order only permutes which list grows first: each gains one
		// posting per document, and documents are visited in id order.
		for t, tf := range tfs {
			lists[t] = append(lists[t], posting{doc: uint32(d), tf: tf})
		}
	}
	return lists
}

// checkInverter compares buildPostings with the reference list for list.
func checkInverter(t *testing.T, c *Corpus) {
	t.Helper()
	got, want := buildPostings(c), refBuildPostings(c)
	if len(got) != len(want) {
		t.Fatalf("%d lists, want %d", len(got), len(want))
	}
	for term := range want {
		if len(got[term]) != len(want[term]) {
			t.Fatalf("term %d: %d postings, want %d", term, len(got[term]), len(want[term]))
		}
		for i, p := range want[term] {
			if got[term][i] != p {
				t.Fatalf("term %d posting %d: %+v, want %+v", term, i, got[term][i], p)
			}
		}
	}
}

// corpusOf wraps hand-written documents as a Corpus.
func corpusOf(vocab int, docs ...[]uint32) *Corpus {
	c := &Corpus{cfg: CorpusConfig{NumDocs: len(docs), VocabSize: vocab, AvgDocLen: 1}, offs: []int{0}}
	for _, doc := range docs {
		c.tokens = append(c.tokens, doc...)
		c.offs = append(c.offs, len(c.tokens))
	}
	return c
}

// inverterShapes are the generated corpus shapes the differential test and
// the fuzz seed corpus share: (NumDocs, VocabSize, AvgDocLen, Seed).
var inverterShapes = []struct {
	name                       string
	docs, vocab, avgLen, seedv int
}{
	{"typical", 300, 500, 40, 1},
	{"vocab-of-one", 50, 1, 30, 2},         // every token is term 0: one list, one posting per non-empty doc
	{"minimum-length-docs", 200, 50, 1, 3}, // AvgDocLen 1: mostly empty and single-term documents
	{"tiny-vocab-long-docs", 40, 3, 400, 4},
	{"vocab-much-larger-than-corpus", 5, 100000, 6, 5}, // almost every term in no document
	{"one-doc", 1, 64, 64, 6},
}

func TestInverterMatchesMapReference(t *testing.T) {
	for _, s := range inverterShapes {
		t.Run(s.name, func(t *testing.T) {
			checkInverter(t, GenerateCorpus(CorpusConfig{
				NumDocs: s.docs, VocabSize: s.vocab, AvgDocLen: s.avgLen, Seed: uint64(s.seedv),
			}))
		})
	}
	// Shapes the generator only produces by chance, written out.
	t.Run("term-in-every-doc-and-term-in-none", func(t *testing.T) {
		c := corpusOf(4, []uint32{0, 1, 0}, []uint32{0}, []uint32{2, 0, 2, 2}, []uint32{0, 0})
		checkInverter(t, c)
		lists := buildPostings(c)
		if len(lists[0]) != c.NumDocs() || len(lists[3]) != 0 {
			t.Fatalf("term 0 in %d of %d docs, term 3 in %d", len(lists[0]), c.NumDocs(), len(lists[3]))
		}
	})
	t.Run("single-term-docs", func(t *testing.T) {
		checkInverter(t, corpusOf(3, []uint32{2}, []uint32{2}, []uint32{0}, []uint32{1}))
	})
	t.Run("empty-docs", func(t *testing.T) {
		checkInverter(t, corpusOf(2, nil, []uint32{1, 1}, nil))
	})
}

// FuzzInverter differential-fuzzes buildPostings against the map reference
// over small generated corpora.
func FuzzInverter(f *testing.F) {
	for _, s := range inverterShapes {
		f.Add(uint16(s.docs), uint16(s.vocab), uint8(s.avgLen), uint64(s.seedv))
	}
	f.Fuzz(func(t *testing.T, docs, vocab uint16, avgLen uint8, seed uint64) {
		cfg := CorpusConfig{
			NumDocs: int(docs%512) + 1, VocabSize: int(vocab%2048) + 1, AvgDocLen: int(avgLen%64) + 1, Seed: seed,
		}
		checkInverter(t, GenerateCorpus(cfg))
	})
}

// imageDigest hashes the immutable image as laid out in an engine's arenas:
// the shard (postings, content), the heap from the dictionary through the
// feature table (alignment padding included), and avgDocLen.
func imageDigest(e *Engine) string {
	h := sha256.New()
	h.Write(e.shard.ReadRaw(e.postingsBase, int(e.shard.Used())))
	featEnd := e.featBase + uint64(e.cfg.Corpus.NumDocs*e.cfg.FeatureBytes)
	h.Write(e.heap.ReadRaw(e.dictBase, int(featEnd-e.dictBase)))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.avgDocLen))
	h.Write(b[:])
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestImageBytesPinned pins the serialized image to digests taken with this
// same imageDigest from Build's arenas at commit 1686ae1, the last one with
// the map-based inverter and the single-function Build — so "same bytes at
// the same addresses" is checked against something older than BuildIndex and
// NewEngine. The vocabulary past the Zipf table's 2^16 ranks was pinned at
// fddeaf2, the last commit that built the image on one goroutine.
func TestImageBytesPinned(t *testing.T) {
	bigVocab := DefaultConfig()
	bigVocab.Corpus.VocabSize = 100_000
	for _, tc := range []struct {
		name        string
		cfg         Config
		want        string
		shard, heap int // arena sizes at that commit
	}{
		{"default", DefaultConfig(), "b4006a2852b487c5c1ddd5cfdd1351718d1ac5406c3635b29f7d46097b70683f", 3724472, 10298272},
		{"test-engine", testEngineConfig(), "3730679dcd8cf7d658be0260c6c8617a523be6fc568324cb66f5afb61affdd7f", 0, 0},
		{"vocab-past-the-zipf-table", bigVocab, "70a0bb7179a827459347a2767c34e1760c16a1e6c42765f042fb71fec6597175", 4040997, 12815456},
	} {
		eng, err := Build(tc.cfg, memsim.NewSpace(nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := imageDigest(eng); got != tc.want {
			t.Errorf("%s: image digest %s, want %s", tc.name, got, tc.want)
		}
		if tc.shard != 0 && (eng.shard.Size() != tc.shard || eng.heap.Size() != tc.heap) {
			t.Errorf("%s: shard %d heap %d bytes, want %d and %d", tc.name, eng.shard.Size(), eng.heap.Size(), tc.shard, tc.heap)
		}
	}
}

// traceOf executes queries on a fresh session of eng and returns their
// results and the recorded access stream.
func traceOf(eng *Engine, queries [][]uint32) ([]Result, []trace.Access) {
	var accesses []trace.Access
	eng.space.SetRecorder(func(a trace.Access) { accesses = append(accesses, a) })
	defer eng.space.SetRecorder(nil)
	sess := eng.NewSession(0, nil)
	results := make([]Result, len(queries))
	for i, q := range queries {
		results[i] = sess.Execute(q)
	}
	return results, accesses
}

// testQueries draws n seeded queries over the test vocabulary, every fourth
// a repeat so the query cache is exercised on both sides.
func testQueries(n int, seed uint64) [][]uint32 {
	rng := stats.NewRNG(seed)
	vocab := testEngineConfig().Corpus.VocabSize
	qs := make([][]uint32, n)
	for i := range qs {
		if i%4 == 3 {
			qs[i] = qs[i-2]
			continue
		}
		qs[i] = []uint32{uint32(rng.Intn(vocab / 8)), uint32(rng.Intn(vocab))}
	}
	return qs
}

// TestEnginesFromOneIndexAreIsolated: two engines share one image. Engine A
// is driven until its query cache and accumulator table are well used; B
// must then behave — results and recorded accesses — exactly like an engine
// on an image nobody else has touched, and the image itself must be
// unchanged.
func TestEnginesFromOneIndexAreIsolated(t *testing.T) {
	cfg := testEngineConfig()
	shared, err := BuildIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engineOn := func(idx *Index) *Engine {
		t.Helper()
		eng, err := newEngine(cfg, idx, memsim.NewSpace(nil), nil, 64) // a cache small enough for A to fill
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	a, b := engineOn(shared), engineOn(shared)

	sessA := a.NewSession(0, nil)
	for _, q := range testQueries(400, 11) {
		sessA.Execute(q)
	}
	if sessA.CacheHits == 0 || sessA.PostingsDecoded == 0 {
		t.Fatalf("engine A was not exercised: %d cache hits, %d postings", sessA.CacheHits, sessA.PostingsDecoded)
	}

	fresh, err := BuildIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, fresh) {
		t.Fatal("driving an engine changed the index image it was built from")
	}
	queries := testQueries(60, 12)
	gotRes, gotAcc := traceOf(b, queries)
	wantRes, wantAcc := traceOf(engineOn(fresh), queries)
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatal("engine B's results differ from an engine on a fresh index")
	}
	if len(gotAcc) == 0 || !reflect.DeepEqual(gotAcc, wantAcc) {
		t.Fatalf("engine B's access trace (%d accesses) differs from an engine on a fresh index (%d)", len(gotAcc), len(wantAcc))
	}
}

// TestNewEngineConcurrent builds and drives engines from one image on
// several goroutines at once (what fig4's sweep workers do); run under
// -race it shows NewEngine and query execution only read the image.
func TestNewEngineConcurrent(t *testing.T) {
	cfg := testEngineConfig()
	idx, err := BuildIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := testQueries(20, 13)
	const workers = 4
	digests := make([]string, workers)
	results := make([][]Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := cfg
			c.MaxSessions = 1 + w // engines may differ in everything the image does not depend on
			eng, err := NewEngine(c, idx, memsim.NewSpace(nil), nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[w], _ = traceOf(eng, queries)
			digests[w] = imageDigest(eng)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if digests[w] != digests[0] || !reflect.DeepEqual(results[w], results[0]) {
			t.Fatalf("engine %d differs from engine 0", w)
		}
	}
}

// TestSharedImageNeverWritten: engines read the shard in place, so the image
// they share must come through anything they do unchanged. Two engines on
// one Index — one built and driven on another goroutine, so under -race a
// write to the shared bytes is also a reported race — answer the oracle
// query set correctly, then one fills its query cache and accumulators, and
// the SHA-256 of every image section is what it was before either existed.
func TestSharedImageNeverWritten(t *testing.T) {
	cfg := testEngineConfig()
	idx, err := BuildIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	digest := func() string {
		h := sha256.New()
		for _, section := range [][]byte{idx.shard, idx.dict, idx.skips, idx.norms, idx.statics, idx.meta, idx.feats} {
			h.Write(section)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	before := digest()
	corpus := GenerateCorpus(cfg.Corpus)

	concurrent := make(chan string, 1)
	go func() {
		eng, err := NewEngine(cfg, idx, memsim.NewSpace(nil), nil)
		if err != nil {
			concurrent <- err.Error()
			return
		}
		concurrent <- oracleMismatch(eng, corpus)
	}()
	eng, err := NewEngine(cfg, idx, memsim.NewSpace(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if &eng.shard.ReadRaw(eng.postingsBase, 1)[0] != &idx.shard[0] {
		t.Error("the engine's shard arena is a copy of the image, not the image")
	}
	if msg := oracleMismatch(eng, corpus); msg != "" {
		t.Errorf("engine on the shared image: %s", msg)
	}
	if msg := <-concurrent; msg != "" {
		t.Errorf("concurrent engine on the shared image: %s", msg)
	}
	sess := eng.NewSession(1, nil)
	for _, q := range testQueries(400, 14) {
		sess.Execute(q)
	}
	if sess.CacheHits == 0 || sess.PostingsDecoded == 0 {
		t.Fatalf("the writing paths were not exercised: %d cache hits, %d postings", sess.CacheHits, sess.PostingsDecoded)
	}
	if after := digest(); after != before {
		t.Fatalf("image digest %s after serving, %s before", after, before)
	}
}

// TestNewEngineRejectsMismatchedIndex: an image built for another corpus or
// feature size is an error, not a panic and not a silently wrong layout.
func TestNewEngineRejectsMismatchedIndex(t *testing.T) {
	cfg := testEngineConfig()
	idx, err := BuildIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"NumDocs":      func(c *Config) { c.Corpus.NumDocs++ },
		"VocabSize":    func(c *Config) { c.Corpus.VocabSize-- },
		"AvgDocLen":    func(c *Config) { c.Corpus.AvgDocLen++ },
		"Seed":         func(c *Config) { c.Corpus.Seed++ },
		"FeatureBytes": func(c *Config) { c.FeatureBytes += 8 },
	} {
		other := cfg
		mutate(&other)
		if _, err := NewEngine(other, idx, memsim.NewSpace(nil), nil); err == nil {
			t.Errorf("index built for a different %s accepted", name)
		}
	}
	bad := cfg
	bad.AccumSlots = 3
	if _, err := NewEngine(bad, idx, memsim.NewSpace(nil), nil); err == nil {
		t.Error("invalid engine config accepted")
	}
	if _, err := BuildIndex(bad); err == nil {
		t.Error("BuildIndex accepted an invalid config")
	}
	bad = cfg
	bad.FeatureBytes = 12
	if _, err := Build(bad, memsim.NewSpace(nil), nil); err == nil {
		t.Error("FeatureBytes that is not a whole number of words accepted")
	}
	// Everything else may differ between engines on one image.
	ok := cfg
	ok.MaxSessions, ok.TopK, ok.AccumSlots = 3, 5, 1<<10
	if _, err := NewEngine(ok, idx, memsim.NewSpace(nil), nil); err != nil {
		t.Errorf("engine differing only in non-image fields rejected: %v", err)
	}
}
