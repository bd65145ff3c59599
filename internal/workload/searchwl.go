package workload

import (
	"fmt"

	"searchmem/internal/codegen"
	"searchmem/internal/memsim"
	"searchmem/internal/search"
	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// SearchWorkload describes a production-search-like profile: an engine
// configuration, a code-segment configuration, and a query distribution.
type SearchWorkload struct {
	// WLName identifies the profile ("S1-leaf", ...).
	WLName string
	// Engine configures the search substrate.
	Engine search.Config
	// Code configures the synthetic text segment.
	Code codegen.Config
	// QueryTermSkew is the Zipf skew of query terms over the vocabulary.
	QueryTermSkew float64
	// MinTerms and MaxTerms bound query lengths.
	MinTerms, MaxTerms int
	// StackBytes sizes each thread's simulated stack.
	StackBytes int
	// MemOverlapFactor overrides the platform's MLP blocking factor
	// (0 = use platform default).
	MemOverlapFactor float64
	// WarmQueries are executed unrecorded after build so measurements
	// start from steady state (as the paper's traces do).
	WarmQueries int
}

// Validate reports whether the profile is runnable.
func (w SearchWorkload) Validate() error {
	if err := w.Engine.Validate(); err != nil {
		return err
	}
	if err := w.Code.Validate(); err != nil {
		return err
	}
	if w.MinTerms <= 0 || w.MaxTerms < w.MinTerms {
		return fmt.Errorf("workload %s: bad term counts", w.WLName)
	}
	if w.QueryTermSkew <= 0 {
		return fmt.Errorf("workload %s: query term skew must be positive", w.WLName)
	}
	if w.StackBytes <= 0 {
		return fmt.Errorf("workload %s: stack bytes must be positive", w.WLName)
	}
	return nil
}

// SearchRunner is a built search workload: engine, program, and per-thread
// sessions. Building is expensive; Run is repeatable.
type SearchRunner struct {
	wl    SearchWorkload
	space *memsim.Space
	eng   *search.Engine
	prog  *codegen.Program

	sessions []*search.Session
	walkers  []*codegen.Walker

	// current capture state (valid during Run only)
	branches *Sinks
	curTid   uint8
}

// Build constructs the runner on an index image of its own, dropped once
// the engine holds its copy. It panics on an invalid profile.
func (w SearchWorkload) Build() *SearchRunner {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	idx, err := search.BuildIndex(w.Engine)
	if err != nil {
		panic(err)
	}
	r, err := w.BuildFrom(idx)
	if err != nil {
		panic(err)
	}
	return r
}

// BuildFrom constructs the runner from an already built index image: it
// lays out the code segment, copies idx into a fresh engine, and warms it.
// idx is only read, so any number of runners — built concurrently or not —
// may come from one image; it must have been built for this profile's
// corpus and feature size.
func (w SearchWorkload) BuildFrom(idx *search.Index) (*SearchRunner, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	r := &SearchRunner{wl: w}
	r.space = memsim.NewSpace(nil)
	code := r.space.NewArena("code", trace.Code, w.Code.CodeBytes())
	r.prog = codegen.New(w.Code, code)
	var err error
	if r.eng, err = search.NewEngine(w.Engine, idx, r.space, r.prog); err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.WLName, err)
	}

	// Warm the engine into steady state, unrecorded.
	warm := r.session(0)
	qrng := stats.NewRNG(w.Engine.Corpus.Seed ^ 0x3a3a)
	tsel := stats.NewZipfCDF(qrng.Split(), w.Engine.Corpus.VocabSize, w.QueryTermSkew)
	for i := 0; i < w.WarmQueries; i++ {
		warm.Execute(r.genTerms(qrng, tsel, nil))
	}
	return r, nil
}

// Name implements Runner.
func (r *SearchRunner) Name() string { return r.wl.WLName }

// MemOverlap implements Runner.
func (r *SearchRunner) MemOverlap() float64 { return r.wl.MemOverlapFactor }

// Space exposes the underlying address space.
func (r *SearchRunner) Space() *memsim.Space { return r.space }

// session lazily creates the per-thread session + walker + stack.
func (r *SearchRunner) session(t int) *search.Session {
	for len(r.sessions) <= t {
		tid := uint8(len(r.sessions) & 0x0f)
		stack := r.space.ThreadStackArena(uint8(len(r.sessions)), r.wl.StackBytes)
		walker := r.prog.NewWalker(tid, uint64(len(r.sessions))*7919+1, stack,
			func(pc uint64, taken bool) {
				if r.branches != nil && r.branches.Branch != nil {
					r.branches.Branch(r.curTid, pc, taken)
				}
			})
		r.walkers = append(r.walkers, walker)
		r.sessions = append(r.sessions, r.eng.NewSession(tid, walker))
	}
	return r.sessions[t]
}

// repeatFrac is the probability a query repeats a recent one. Leaves see
// little repetition (upstream cache servers absorb popular queries); the
// serving tree's cache tier is modeled separately in internal/serving.
const repeatFrac = 0.02

// genTerms draws one query's terms. history, when non-nil, enables
// repeatFrac repeats of recent queries.
func (r *SearchRunner) genTerms(rng *stats.RNG, tsel *stats.ZipfCDF, history *[][]uint32) []uint32 {
	if history != nil && len(*history) > 8 && rng.Bool(repeatFrac) {
		return (*history)[rng.Intn(len(*history))]
	}
	n := r.wl.MinTerms + rng.Intn(r.wl.MaxTerms-r.wl.MinTerms+1)
	terms := make([]uint32, n)
	for i := range terms {
		terms[i] = uint32(tsel.Next())
	}
	if history != nil {
		*history = append(*history, terms)
		if len(*history) > 256 {
			*history = (*history)[1:]
		}
	}
	return terms
}

// Run implements Runner: it executes queries round-robin across threads,
// interleaving their access streams in fine-grained bursts.
func (r *SearchRunner) Run(threads int, instrBudget int64, seed uint64, s Sinks) Stats {
	if threads <= 0 {
		panic("workload: threads must be positive")
	}
	if threads > r.wl.Engine.MaxSessions {
		panic(fmt.Sprintf("workload %s: %d threads exceed MaxSessions %d",
			r.wl.WLName, threads, r.wl.Engine.MaxSessions))
	}
	var st Stats
	perThreadBudget := instrBudget / int64(threads)

	qrngs := make([]*stats.RNG, threads)
	tsels := make([]*stats.ZipfCDF, threads)
	histories := make([][][]uint32, threads)
	startInstr := make([]int64, threads)
	startQueries := make([]int64, threads)
	startHits := make([]int64, threads)
	startPostings := make([]int64, threads)
	startBranches := make([]int64, threads)
	for t := 0; t < threads; t++ {
		sess := r.session(t)
		qrngs[t] = stats.NewRNG(seed*1_000_000_007 + uint64(t)*31 + 7)
		tsels[t] = stats.NewZipfCDF(qrngs[t].Split(), r.wl.Engine.Corpus.VocabSize, r.wl.QueryTermSkew)
		startInstr[t] = sess.Instructions()
		startQueries[t] = sess.Queries
		startHits[t] = sess.CacheHits
		startPostings[t] = sess.PostingsDecoded
		startBranches[t] = r.walkers[t].Branches
	}

	r.branches = &s
	defer func() { r.branches = nil; r.space.SetRecorder(nil) }()

	// Capture one query's accesses into its thread's drained buffer, then
	// interleave.
	var buf []trace.Access
	record := func(a trace.Access) { buf = append(buf, a) }
	runQuery := func(t int, drained []trace.Access) ([]trace.Access, bool) {
		sess := r.sessions[t]
		if sess.Instructions()-startInstr[t] >= perThreadBudget {
			return nil, false
		}
		buf = drained
		r.curTid = uint8(t & 0x0f)
		r.space.SetRecorder(record)
		sess.Execute(r.genTerms(qrngs[t], tsels[t], &histories[t]))
		r.space.SetRecorder(nil)
		return buf, true
	}

	iv := newInterleaver(threads, 64, s.Access, runQuery)
	st.Accesses = iv.run()

	for t := 0; t < threads; t++ {
		sess := r.sessions[t]
		st.Instructions += sess.Instructions() - startInstr[t]
		st.Queries += sess.Queries - startQueries[t]
		st.CacheHits += sess.CacheHits - startHits[t]
		st.PostingsDecoded += sess.PostingsDecoded - startPostings[t]
		st.Branches += r.walkers[t].Branches - startBranches[t]
	}
	return st
}
