package search

import (
	"sort"
	"testing"

	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// oracleConjunctive recomputes the AND result independently from the corpus.
func oracleConjunctive(e *Engine, c *Corpus, terms []uint32) []uint32 {
	type cand struct {
		doc   uint32
		score float32
	}
	// Per-term document frequencies and tfs.
	tf := make([]map[uint32]uint32, len(terms))
	df := make([]uint32, len(terms))
	for i, term := range terms {
		tf[i] = map[uint32]uint32{}
		for d := 0; d < c.NumDocs(); d++ {
			count := uint32(0)
			for _, w := range c.Doc(d) {
				if w == term {
					count++
				}
			}
			if count > 0 {
				tf[i][uint32(d)] = count
				df[i]++
			}
		}
		if df[i] == 0 {
			return nil
		}
	}
	// Mirror the engine: the rarest term drives (ties: first), and only
	// its first MaxPostingsPerTerm postings (in doc order) are candidates.
	lead := 0
	for i := range terms {
		if df[i] < df[lead] {
			lead = i
		}
	}
	leadDocs := make([]uint32, 0, len(tf[lead]))
	for d := range tf[lead] {
		leadDocs = append(leadDocs, d)
	}
	sort.Slice(leadDocs, func(i, j int) bool { return leadDocs[i] < leadDocs[j] })
	if len(leadDocs) > e.Config().MaxPostingsPerTerm {
		leadDocs = leadDocs[:e.Config().MaxPostingsPerTerm]
	}
	var cands []cand
	for _, doc := range leadDocs {
		inAll := true
		for i := range terms {
			if _, ok := tf[i][doc]; !ok {
				inAll = false
				break
			}
		}
		if !inAll {
			continue
		}
		dl := QuantizedDocLen(len(c.Doc(int(doc))))
		boost := 1 + float32(e.StaticWord(doc)%64)/256
		var score float32
		for i := range terms {
			score += e.bm25(e.idf(df[i]), tf[i][doc], dl) * boost
		}
		cands = append(cands, cand{doc, score})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].doc < cands[j].doc
	})
	if len(cands) > e.Config().TopK {
		cands = cands[:e.Config().TopK]
	}
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

func TestConjunctiveMatchesOracle(t *testing.T) {
	eng, corpus := buildTestEngine(t, nil)
	sess := eng.NewSession(0, nil)
	rng := stats.NewRNG(33)
	checked := 0
	for q := 0; q < 40 && checked < 12; q++ {
		// Popular terms so intersections are non-empty often.
		terms := []uint32{uint32(rng.Intn(40)), uint32(rng.Intn(40))}
		if terms[0] == terms[1] {
			continue
		}
		got := sess.ExecuteConjunctive(terms)
		want := oracleConjunctive(eng, corpus, terms)
		if len(want) > 0 {
			checked++
		}
		if len(got.Docs) != len(want) {
			t.Fatalf("query %v: got %d docs, want %d", terms, len(got.Docs), len(want))
		}
		for i := range want {
			if got.Docs[i] != want[i] {
				t.Fatalf("query %v rank %d: got %d, want %d", terms, i, got.Docs[i], want[i])
			}
		}
	}
	if checked < 5 {
		t.Fatalf("only %d non-empty intersections exercised", checked)
	}
}

func TestConjunctiveSubsetOfDisjunctive(t *testing.T) {
	eng, corpus := buildTestEngine(t, nil)
	sess := eng.NewSession(0, nil)
	terms := []uint32{3, 9}
	and := sess.ExecuteConjunctive(terms)
	// Every AND result must contain every term.
	for _, doc := range and.Docs {
		for _, term := range terms {
			found := false
			for _, w := range corpus.Doc(int(doc)) {
				if w == term {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("doc %d in AND result lacks term %d", doc, term)
			}
		}
	}
}

func TestConjunctiveAbsentTerm(t *testing.T) {
	eng, _ := buildTestEngine(t, nil)
	sess := eng.NewSession(0, nil)
	if r := sess.ExecuteConjunctive([]uint32{1, 1 << 30}); len(r.Docs) != 0 {
		t.Fatal("out-of-vocab conjunct returned results")
	}
	if r := sess.ExecuteConjunctive(nil); len(r.Docs) != 0 {
		t.Fatal("empty conjunction returned results")
	}
}

func TestConjunctiveEmitsShardTraffic(t *testing.T) {
	eng, _ := buildTestEngine(t, nil)
	var shard int
	eng.Space().SetRecorder(func(a trace.Access) {
		if a.Seg == trace.Shard {
			shard++
		}
	})
	sess := eng.NewSession(0, nil)
	sess.ExecuteConjunctive([]uint32{1, 2})
	if shard == 0 {
		t.Fatal("conjunctive evaluation emitted no shard accesses")
	}
}

func TestConjunctiveThreeTerms(t *testing.T) {
	eng, corpus := buildTestEngine(t, nil)
	sess := eng.NewSession(0, nil)
	rng := stats.NewRNG(55)
	checked := 0
	for q := 0; q < 60 && checked < 6; q++ {
		terms := []uint32{uint32(rng.Intn(25)), uint32(rng.Intn(25)), uint32(rng.Intn(25))}
		if terms[0] == terms[1] || terms[1] == terms[2] || terms[0] == terms[2] {
			continue
		}
		got := sess.ExecuteConjunctive(terms)
		want := oracleConjunctive(eng, corpus, terms)
		if len(want) > 0 {
			checked++
		}
		if len(got.Docs) != len(want) {
			t.Fatalf("query %v: got %d docs, want %d", terms, len(got.Docs), len(want))
		}
		for i := range want {
			if got.Docs[i] != want[i] {
				t.Fatalf("query %v rank %d: got %d, want %d", terms, i, got.Docs[i], want[i])
			}
		}
	}
	if checked < 3 {
		t.Skipf("only %d non-empty 3-way intersections found", checked)
	}
}
