package search

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"sync"
	"testing"

	"searchmem/internal/stats"
)

// refGenerateCorpus is the one-loop corpus generator: per document, draw
// its length through the bounded-Pareto formula written out, then draw its
// terms. It is the reference GenerateCorpus is compared against.
func refGenerateCorpus(cfg CorpusConfig) *Corpus {
	rng := stats.NewRNG(cfg.Seed)
	termDist := stats.NewZipf(rng.Split(), uint64(cfg.VocabSize), termZipfSkew)
	c := &Corpus{cfg: cfg, offs: []int{0}}
	minLen, maxLen, alpha := float64(cfg.AvgDocLen)/3, float64(cfg.AvgDocLen)*12, 1.75
	for d := 0; d < cfg.NumDocs; d++ {
		u := rng.Float64()
		la, ha := math.Pow(minLen, alpha), math.Pow(maxLen, alpha)
		n := int(math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha))
		for i := 0; i < n; i++ {
			c.tokens = append(c.tokens, uint32(termDist.Next()))
		}
		c.offs = append(c.offs, len(c.tokens))
	}
	return c
}

// refSerialize is the append-based serializer: each section grows by
// appends, in one pass over the lists and one over the documents. It is the
// reference BuildIndex's serializer is compared against.
func refSerialize(cfg Config, corpus *Corpus, lists [][]posting) *Index {
	numDocs := cfg.Corpus.NumDocs
	x := &Index{corpus: cfg.Corpus, featureBytes: cfg.FeatureBytes, avgDocLen: corpus.AvgDocLen()}
	x.dict = make([]byte, cfg.Corpus.VocabSize*dictRecBytes)
	for t, list := range lists {
		off := uint64(len(x.shard))
		skipOff := uint64(len(x.skips))
		prev := uint32(0)
		for i, p := range list {
			if i%SkipInterval == 0 {
				x.skips = binary.LittleEndian.AppendUint64(x.skips, uint64(len(x.shard))-off)
				x.skips = binary.LittleEndian.AppendUint32(x.skips, prev)
				x.skips = binary.LittleEndian.AppendUint32(x.skips, 0)
			}
			x.shard = binary.AppendUvarint(x.shard, uint64(p.doc-prev))
			x.shard = binary.AppendUvarint(x.shard, uint64(p.tf))
			prev = p.doc
		}
		rec := x.dict[t*dictRecBytes:]
		binary.LittleEndian.PutUint64(rec, off)
		binary.LittleEndian.PutUint32(rec[8:], uint32(len(list)))
		binary.LittleEndian.PutUint32(rec[12:], uint32(uint64(len(x.shard))-off))
		binary.LittleEndian.PutUint64(rec[16:], skipOff)
	}
	x.postingBytes = len(x.shard)
	x.meta = make([]byte, numDocs*metaRecBytes)
	x.norms = make([]byte, numDocs)
	for d := 0; d < numDocs; d++ {
		doc := corpus.Doc(d)
		start := len(x.shard)
		for _, term := range doc {
			x.shard = binary.AppendUvarint(x.shard, uint64(term))
		}
		rec := x.meta[d*metaRecBytes:]
		binary.LittleEndian.PutUint64(rec, uint64(start-x.postingBytes))
		binary.LittleEndian.PutUint32(rec[8:], uint32(len(x.shard)-start))
		binary.LittleEndian.PutUint32(rec[12:], uint32(len(doc)))
		x.norms[d] = byte(QuantizedDocLen(len(doc)) >> 2)
	}
	srng := stats.NewRNG(cfg.Corpus.Seed ^ 0x57a71c)
	for i := 0; i < numDocs*staticRecBytes; i += 8 {
		x.statics = binary.LittleEndian.AppendUint64(x.statics, srng.Uint64())
	}
	frng := stats.NewRNG(cfg.Corpus.Seed ^ 0xfea7)
	for i := 0; i < numDocs*cfg.FeatureBytes; i += 8 {
		x.feats = binary.LittleEndian.AppendUint64(x.feats, frng.Uint64())
	}
	return x
}

// refBuildIndex builds cfg's image from the three references: the one-loop
// generator, the map inverter and the append-based serializer.
func refBuildIndex(cfg Config) *Index {
	c := refGenerateCorpus(cfg.Corpus)
	return refSerialize(cfg, c, refBuildPostings(c))
}

// checkBuild requires BuildIndex's image of cfg to equal the reference
// image, section by section and byte for byte.
func checkBuild(t *testing.T, cfg Config) {
	t.Helper()
	got, err := BuildIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := refBuildIndex(cfg)
	if got.corpus != want.corpus || got.featureBytes != want.featureBytes || got.postingBytes != want.postingBytes ||
		math.Float64bits(got.avgDocLen) != math.Float64bits(want.avgDocLen) {
		t.Fatalf("%+v: corpus %+v, %d feature bytes, %d posting bytes, avgDocLen %v; want %+v, %d, %d, %v",
			cfg.Corpus, got.corpus, got.featureBytes, got.postingBytes, got.avgDocLen,
			want.corpus, want.featureBytes, want.postingBytes, want.avgDocLen)
	}
	for _, s := range []struct {
		name      string
		got, want []byte
	}{
		{"shard", got.shard, want.shard}, {"dict", got.dict, want.dict}, {"skips", got.skips, want.skips},
		{"norms", got.norms, want.norms}, {"statics", got.statics, want.statics},
		{"meta", got.meta, want.meta}, {"feats", got.feats, want.feats},
	} {
		if bytes.Equal(s.got, s.want) {
			continue
		}
		i := 0
		for i < min(len(s.got), len(s.want)) && s.got[i] == s.want[i] {
			i++
		}
		t.Fatalf("%+v: %s is %d bytes, want %d; first difference at byte %d", cfg.Corpus, s.name, len(s.got), len(s.want), i)
	}
}

// buildShapes are the configurations the differential test and the fuzz
// seed corpus share: the inverter's shapes, plus vocabularies past the Zipf
// sampler's 2^16-rank table and corpora of mostly empty documents.
var buildShapes = append(append([]struct {
	name                       string
	docs, vocab, avgLen, seedv int
}{}, inverterShapes...), []struct {
	name                       string
	docs, vocab, avgLen, seedv int
}{
	{"vocab-past-the-zipf-table", 400, 70000, 30, 7},
	{"vocab-just-past-the-zipf-table", 100, 1<<16 + 1, 12, 8},
	{"mostly-empty-docs", 997, 40, 1, 9},
	{"long-lists-with-skips", 9000, 3, 2, 10}, // lists longer than SkipInterval
}...)

func TestBuildIndexMatchesReference(t *testing.T) {
	for _, s := range buildShapes {
		t.Run(s.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Corpus = CorpusConfig{NumDocs: s.docs, VocabSize: s.vocab, AvgDocLen: s.avgLen, Seed: uint64(s.seedv)}
			checkBuild(t, cfg)
		})
	}
	t.Run("test-engine", func(t *testing.T) { checkBuild(t, testEngineConfig()) })
}

// FuzzBuildIndexMatchesReference differential-fuzzes BuildIndex against the
// reference build over fuzzed corpus shapes, seeds and feature sizes. A set
// top bit of vocab takes the vocabulary past the Zipf table's 2^16 ranks.
func FuzzBuildIndexMatchesReference(f *testing.F) {
	for _, s := range buildShapes {
		vocab := uint32(s.vocab)
		if s.vocab > 1<<16 {
			vocab = 1<<31 | uint32(s.vocab-1<<16-1)
		}
		f.Add(uint16(s.docs), vocab, uint8(s.avgLen), uint64(s.seedv), uint8(s.seedv))
	}
	f.Fuzz(func(t *testing.T, docs uint16, vocab uint32, avgLen uint8, seed uint64, featWords uint8) {
		v := int(vocab%2048) + 1
		if vocab>>31 != 0 {
			v = 1<<16 + int(vocab%8192) + 1
		}
		cfg := DefaultConfig()
		cfg.Corpus = CorpusConfig{NumDocs: int(docs%1024) + 1, VocabSize: v, AvgDocLen: int(avgLen%64) + 1, Seed: seed}
		cfg.FeatureBytes = 8 * (int(featWords%16) + 1)
		checkBuild(t, cfg)
	})
}

// TestBuildIndexConcurrent builds one configuration on two goroutines at
// once; under -race it shows that concurrent builds share nothing mutable,
// and the two images must be equal.
func TestBuildIndexConcurrent(t *testing.T) {
	cfg := testEngineConfig()
	var idx [2]*Index
	var wg sync.WaitGroup
	for i := range idx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, err := BuildIndex(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			idx[i] = x
		}()
	}
	wg.Wait()
	if idx[0] == nil || idx[1] == nil || !reflect.DeepEqual(idx[0], idx[1]) {
		t.Fatal("two concurrent builds of one configuration differ")
	}
}

// BenchmarkBuildIndex builds the fast-scale S1-leaf image (75 000 documents,
// 25 000 terms, 64 terms per document on average).
func BenchmarkBuildIndex(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Corpus = CorpusConfig{NumDocs: 75_000, VocabSize: 25_000, AvgDocLen: 64, Seed: 0x51ea1}
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
