package search

// TopK maintains the k highest-scoring (doc, score) pairs seen, with
// deterministic tie-breaking (lower document id wins a score tie). It is a
// bounded binary min-heap: the root is the weakest kept result.
type TopK struct {
	k      int
	docs   []uint32
	scores []float32
}

// NewTopK returns an empty selector for k results.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("search: TopK requires k > 0")
	}
	return &TopK{k: k}
}

// Reset empties the selector for reuse.
func (t *TopK) Reset() {
	t.docs = t.docs[:0]
	t.scores = t.scores[:0]
}

// worse reports whether entry i ranks below entry j (lower score, or equal
// score with higher doc id).
func (t *TopK) worse(i, j int) bool {
	if t.scores[i] != t.scores[j] {
		return t.scores[i] < t.scores[j]
	}
	return t.docs[i] > t.docs[j]
}

// Push offers one candidate.
func (t *TopK) Push(doc uint32, score float32) {
	if len(t.docs) < t.k {
		t.docs = append(t.docs, doc)
		t.scores = append(t.scores, score)
		t.up(len(t.docs) - 1)
		return
	}
	// Saturated: compare against the root (the current weakest) directly —
	// no append past k, no truncation, no allocation on the hot path.
	if score < t.scores[0] || (score == t.scores[0] && doc >= t.docs[0]) {
		return
	}
	t.docs[0], t.scores[0] = doc, score
	t.down(0)
}

func (t *TopK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.worse(i, p) {
			break
		}
		t.swap(i, p)
		i = p
	}
}

func (t *TopK) down(i int) {
	n := len(t.docs)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && t.worse(l, min) {
			min = l
		}
		if r < n && t.worse(r, min) {
			min = r
		}
		if min == i {
			return
		}
		t.swap(i, min)
		i = min
	}
}

func (t *TopK) swap(i, j int) {
	t.docs[i], t.docs[j] = t.docs[j], t.docs[i]
	t.scores[i], t.scores[j] = t.scores[j], t.scores[i]
}

// Results returns the kept results ordered best-first, emptying the
// selector.
func (t *TopK) Results() (docs []uint32, scores []float32) {
	n := len(t.docs)
	docs = make([]uint32, n)
	scores = make([]float32, n)
	t.drainInto(docs, scores)
	return docs, scores
}

// ResultsInto drains the kept results best-first into the caller's buffers
// (whose lengths must be at least Len) and returns the result count. It is
// the zero-allocation counterpart of Results, used by the serving tier's
// pooled merge path. The ordering is identical to Results.
func (t *TopK) ResultsInto(docs []uint32, scores []float32) int {
	n := len(t.docs)
	if len(docs) < n || len(scores) < n {
		panic("search: ResultsInto buffers smaller than Len")
	}
	t.drainInto(docs, scores)
	return n
}

func (t *TopK) drainInto(docs []uint32, scores []float32) {
	for i := len(t.docs) - 1; i >= 0; i-- {
		docs[i], scores[i] = t.docs[0], t.scores[0]
		last := len(t.docs) - 1
		t.swap(0, last)
		t.docs = t.docs[:last]
		t.scores = t.scores[:last]
		t.down(0)
	}
}
