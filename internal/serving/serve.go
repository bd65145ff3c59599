package serving

import (
	"fmt"
	"slices"

	"searchmem/internal/obs"
	"searchmem/internal/search"
)

// serveScratch holds every buffer the serve kernel needs, allocated once
// per cluster and reused query to query by whoever holds Cluster.driveMu.
// Leaf result buffers cover the widest parent — a parent's merge consumes
// them before the next parent runs — while outs and branches cover the whole
// tree, because a query's trace is reconstructed from them after the root
// merge.
type serveScratch struct {
	prim        []attempt     // per-leaf primary attempts of the current parent
	outs        []leafOutcome // one per leaf in shard order; parent pi owns outs[pi*Fanout:]
	branches    []branch      // one per parent
	primDocs    [][]uint32    // per-leaf primary result buffers (TopK each)
	primScores  [][]float32
	hedgeDocs   [][]uint32 // per-leaf hedge result buffers
	hedgeScores [][]float32
	bdocs       []uint32 // branch-merge drain (one parent at a time)
	bscores     []float32
	docs        []uint32 // root-merge drain and cache-hit copy
	scores      []float32
	tk, rootTK  *search.TopK
	seen        map[uint32]struct{} // hedge-win dedup, cleared per use

	// What the last serve left besides its latency and partial flag: the
	// result count in docs and scores, whether the cache answered, and how
	// many leaves made the merge.
	n         int
	fromCache bool
	answered  int
}

// attempt is one executor call's raw outcome.
type attempt struct {
	docs   []uint32
	scores []float32
	lat    float64
	err    error
}

// branch is one parent subtree's contribution to the root merge, kept for
// trace reconstruction.
type branch struct {
	lat      float64
	answered int
	partial  bool
}

func newServeScratch(cfg Config) *serveScratch {
	f := min(cfg.Fanout, cfg.Leaves)
	k := cfg.TopK
	s := &serveScratch{
		prim:        make([]attempt, f),
		outs:        make([]leafOutcome, cfg.Leaves),
		branches:    make([]branch, (cfg.Leaves+cfg.Fanout-1)/cfg.Fanout),
		primDocs:    make([][]uint32, f),
		primScores:  make([][]float32, f),
		hedgeDocs:   make([][]uint32, f),
		hedgeScores: make([][]float32, f),
		bdocs:       make([]uint32, k),
		bscores:     make([]float32, k),
		docs:        make([]uint32, k),
		scores:      make([]float32, k),
		tk:          search.NewTopK(k),
		rootTK:      search.NewTopK(k),
		seen:        make(map[uint32]struct{}, f*k),
	}
	docBack := make([]uint32, 2*f*k)
	scoreBack := make([]float32, 2*f*k)
	for i := 0; i < f; i++ {
		s.primDocs[i] = docBack[i*k : (i+1)*k]
		s.primScores[i] = scoreBack[i*k : (i+1)*k]
		s.hedgeDocs[i] = docBack[(f+i)*k : (f+i+1)*k]
		s.hedgeScores[i] = scoreBack[(f+i)*k : (f+i+1)*k]
	}
	return s
}

// callLeaf runs one executor call into the given scratch buffers.
func callLeaf(exec Executor, terms []uint32, docs []uint32, scores []float32) attempt {
	n, lat, err := exec.SearchBuf(terms, docs, scores)
	return attempt{docs[:n], scores[:n], lat, err}
}

// fanOut runs the parent's leaf calls with deadline and hedging semantics
// in virtual time and resolves them into outs (fully overwritten). All
// primaries are called first, in leaf order, then the hedged retries (to the
// next sibling shard, a stand-in for a replica), in leaf order: every
// executor is called at most once per phase, which fixes the draw order of
// executors with internal RNG state. An outcome's docs alias the scratch
// result buffers and are valid only until the next fanOut; its timeline
// fields stay valid for the rest of the query.
func (c *Cluster) fanOut(p *parent, terms []uint32, congestion float64, outs []leafOutcome) {
	s := c.scratch
	deadline, hedgeDelay := c.cfg.LeafDeadlineNS, c.cfg.HedgeDelayNS
	n := len(p.leaves)

	prim := s.prim[:n]
	for li, lf := range p.leaves {
		prim[li] = callLeaf(lf.exec, terms, s.primDocs[li], s.primScores[li])
	}

	for li, lf := range p.leaves {
		a := prim[li]
		arrival := a.lat * congestion
		ok := a.err == nil
		out := &outs[li]
		*out = leafOutcome{
			srcLeaf:          lf.id,
			attemptLatNS:     [2]float64{a.lat},
			attempts:         1,
			failed:           !ok,
			primaryLeaf:      lf.id,
			primaryArrivalNS: arrival,
			hedgeIssuedNS:    -1,
		}

		// One hedged retry per leaf: issued at the hedge delay while the
		// primary is still pending, or immediately when the primary fails
		// first. Skipped when it could not possibly beat the deadline.
		issueAt := -1.0
		if hedgeDelay > 0 && n >= 2 {
			if !ok {
				issueAt = arrival
			} else if arrival > hedgeDelay {
				issueAt = hedgeDelay
			}
		}
		if issueAt >= 0 && (deadline == 0 || issueAt < deadline) {
			sib := p.leaves[(li+1)%n]
			h := callLeaf(sib.exec, terms, s.hedgeDocs[li], s.hedgeScores[li])
			hArrival := issueAt + h.lat*congestion
			out.attemptLatNS[1] = h.lat
			out.attempts = 2
			out.hedged = true
			out.hedgeIssuedNS = issueAt
			out.hedgeArrivalNS = hArrival
			out.hedgeLeaf = sib.id
			if h.err == nil && (!ok || hArrival < arrival) {
				a, arrival, ok = h, hArrival, true
				out.srcLeaf = sib.id
				out.hedgeWon = true
			} else if !ok && hArrival > arrival {
				// Both attempts failed; the parent learns at the later one.
				arrival = hArrival
			}
		}

		switch {
		case !ok:
			out.waitNS = arrival
			if deadline > 0 && out.waitNS > deadline {
				out.waitNS = deadline
			}
		case deadline > 0 && arrival > deadline:
			out.timedOut = true
			out.waitNS = deadline
		default:
			out.answered = true
			out.docs, out.scores = a.docs, a.scores
			out.waitNS = arrival
		}
	}
}

// Serve runs one query through the full tree and returns the merged result
// with its modeled latency. It is safe for concurrent callers, which are
// serialized on the cluster (against each other and against RunLoad /
// RunScenario): time is virtual, so concurrency is what the model accounts
// for — LeafCapacity against the load drivers' occupancy — not something
// execution needs. A direct Serve sees an otherwise idle leaf tier. The
// returned slices belong to the caller.
func (c *Cluster) Serve(q Query) Result {
	c.driveMu.Lock()
	defer c.driveMu.Unlock()
	lat, partial := c.serve(q.Terms, 0)
	c.metrics.publish()
	s := c.scratch
	return Result{
		Docs:           slices.Clone(s.docs[:s.n]),
		Scores:         slices.Clone(s.scores[:s.n]),
		FromCache:      s.fromCache,
		LatencyNS:      lat,
		Partial:        partial,
		LeavesAnswered: s.answered,
	}
}

// serve is the one implementation of "serve one query": latency model,
// cache tier, fan-out, merges, counters, metrics and — when Config.Tracer is
// set — the query's trace, with zero allocations per untraced query
// (enforced by the ZeroAlloc oracles in alloc_test.go). standing is how many
// other queries occupy the leaf tier while this one runs. It returns what
// RunLoad and RunScenario read, the modeled latency and whether the merge
// was partial; the rest of the query's Result stays in the scratch (docs[:n],
// scores[:n], fromCache, answered) until the next serve call. Callers must
// hold driveMu.
func (c *Cluster) serve(terms []uint32, standing int) (latencyNS float64, partial bool) {
	s := c.scratch

	congestion := 1.0
	if c.cfg.LeafCapacity > 0 {
		rho := float64(standing+1) / float64(c.cfg.LeafCapacity)
		if rho > 0.95 {
			rho = 0.95
		}
		congestion = 1 / (1 - rho)
	}

	lat := frontendOverheadNS
	tag := cacheTag(terms)
	probed := c.cache != nil
	if probed {
		if n, ok := c.cache.get(tag, s.docs, s.scores); ok {
			c.metrics.recordCacheHit()
			s.n, s.fromCache, s.answered = n, true, 0
			lat += networkHopNS
			if tb := c.cfg.Tracer.Begin("query"); tb != nil {
				c.emitCacheHitTrace(tb, lat)
			}
			return lat, false
		}
		lat += networkHopNS // cache miss probe
	}
	lat += rootOverheadNS

	// Root fans out to parents, parents to leaves; parallel hops cost the
	// slowest child and parents give up on a leaf at the deadline. Parents
	// run one after another: each branch merges in leaf order into the
	// branch selector, then feeds the root selector.
	s.rootTK.Reset()
	var worst float64
	answered := 0
	for pi, p := range c.parents {
		outs := s.outs[pi*c.cfg.Fanout:][:len(p.leaves)]
		c.fanOut(p, terms, congestion, outs)

		// A winning hedge returns the sibling shard's docs, which duplicate
		// the sibling's own answer — dedupe only then.
		var seen map[uint32]struct{}
		for i := range outs {
			if outs[i].hedgeWon {
				clear(s.seen)
				seen = s.seen
				break
			}
		}
		s.tk.Reset()
		b := branch{}
		var wait float64
		for i := range outs {
			o := &outs[i]
			if o.waitNS > wait {
				wait = o.waitNS
			}
			c.metrics.recordLeaf(o)
			if !o.answered {
				b.partial = true
				continue
			}
			b.answered++
			for j := range o.docs {
				// Disambiguate doc ids across shards.
				id := o.docs[j]*uint32(c.cfg.Leaves) + uint32(o.srcLeaf)
				if seen != nil {
					if _, dup := seen[id]; dup {
						continue
					}
					seen[id] = struct{}{}
				}
				s.tk.Push(id, o.scores[j])
			}
		}
		bn := s.tk.ResultsInto(s.bdocs, s.bscores)
		b.lat = wait + 2*networkHopNS
		s.branches[pi] = b
		if b.lat > worst {
			worst = b.lat
		}
		partial = partial || b.partial
		answered += b.answered
		for j := 0; j < bn; j++ {
			s.rootTK.Push(s.bdocs[j], s.bscores[j])
		}
	}

	n := s.rootTK.ResultsInto(s.docs, s.scores)
	lat += worst + 2*networkHopNS
	s.n, s.fromCache, s.answered = n, false, answered

	// Degraded merges are never cached: a later identical query should get
	// another chance at a full answer, not a pinned partial one.
	if probed && !partial {
		c.cache.put(tag, s.docs[:n], s.scores[:n])
	}
	c.metrics.recordServe(probed, worst+2*networkHopNS, partial)
	if tb := c.cfg.Tracer.Begin("query"); tb != nil {
		c.emitServeTrace(tb, probed, congestion, lat, partial)
	}
	return lat, partial
}

// emitCacheHitTrace records the two-span trace of a cache-served query.
func (c *Cluster) emitCacheHitTrace(tb *obs.TraceBuilder, lat float64) {
	root := tb.Span(0, "query", 0, lat,
		obs.Bool("from_cache", true), obs.Bool("partial", false))
	tb.Span(root, "frontend", 0, frontendOverheadNS)
	tb.Span(root, "cache-probe", frontendOverheadNS, frontendOverheadNS+networkHopNS, obs.Bool("hit", true))
	tb.Finish()
}

// emitServeTrace reconstructs a full tree traversal's span tree from the
// outcomes and branch summaries the query just left in the scratch. The
// virtual timeline mirrors the latency model exactly: frontend, optional
// cache probe, root preprocessing, one hop down to each parent, one hop
// down to each leaf, congested leaf service, and the return hops; the root
// merge itself is free in the model, so its span is an instant marking
// where the result assembled.
func (c *Cluster) emitServeTrace(tb *obs.TraceBuilder, probed bool, congestion, lat float64, partial bool) {
	s := c.scratch
	root := tb.Span(0, "query", 0, lat,
		obs.Bool("from_cache", false),
		obs.Bool("partial", partial),
		obs.Int("leaves_answered", int64(s.answered)),
		obs.Float("congestion", congestion))
	tb.Span(root, "frontend", 0, frontendOverheadNS)
	rootStart := frontendOverheadNS
	if probed {
		tb.Span(root, "cache-probe", frontendOverheadNS, frontendOverheadNS+networkHopNS, obs.Bool("hit", false))
		rootStart += networkHopNS
	}
	fanStart := rootStart + rootOverheadNS
	tb.Span(root, "root", rootStart, fanStart)
	fan := tb.Span(root, "fanout", fanStart, lat,
		obs.Int("parents", int64(len(c.parents))))
	for pi, p := range c.parents {
		b := s.branches[pi]
		outs := s.outs[pi*c.cfg.Fanout:][:len(p.leaves)]
		pStart := fanStart + networkHopNS
		ps := tb.Span(fan, fmt.Sprintf("parent[%d]", pi), pStart, pStart+b.lat,
			obs.Int("leaves", int64(len(outs))),
			obs.Int("answered", int64(b.answered)),
			obs.Bool("partial", b.partial))
		leafStart := pStart + networkHopNS
		for li := range outs {
			o := &outs[li]
			tb.Span(ps, fmt.Sprintf("leaf[%d]/primary", o.primaryLeaf),
				leafStart, leafStart+o.primaryArrivalNS,
				obs.Int("shard", int64(o.primaryLeaf)),
				obs.Bool("failed", o.failed),
				obs.Bool("timed_out", o.timedOut),
				obs.Bool("answered", o.answered && !o.hedgeWon))
			if o.hedged {
				tb.Span(ps, fmt.Sprintf("leaf[%d]/hedge", o.primaryLeaf),
					leafStart+o.hedgeIssuedNS, leafStart+o.hedgeArrivalNS,
					obs.Int("shard", int64(o.hedgeLeaf)),
					obs.Bool("won", o.hedgeWon))
			}
		}
	}
	tb.Span(fan, "merge", lat, lat,
		obs.Int("results", int64(s.n)),
		obs.Bool("partial", partial))
	tb.Finish()
}
