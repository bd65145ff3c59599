// Package serving implements the search serving system of the paper's
// Figure 1: a front-end web server, cache servers, a root, intermediate
// parents, and leaf nodes each holding an index shard. Queries fan out down
// the tree; results propagate up with score-based merging at every level.
//
// Time is virtual: every component charges modeled latency to the query and
// parallel fan-out costs the maximum over children, which keeps simulations
// deterministic and fast while producing realistic latency distributions.
// One function, Cluster.serve, computes a served query; Serve, RunLoad and
// RunScenario all reach it, serialized per cluster, traced or not
// (DESIGN.md §14). The only goroutines the package starts are an open-loop
// RunScenario's: it draws the issue schedule, which never reads a latency,
// on a second goroutine while the calling one serves it, and it scans and
// re-seeds the first arrivals in two halves. Each has ended by the time
// RunScenario returns or panics, and results do not depend on GOMAXPROCS.
//
// The tier is fault tolerant: each leaf call carries a virtual-time deadline
// with one hedged retry to a sibling shard, and parents merge whatever
// arrived in time, marking the result Partial instead of stalling on slow or
// failed leaves. See FaultyExecutor for deterministic fault injection and
// Cluster.Metrics for per-stage observability.
package serving

import (
	"fmt"
	"sync"

	"searchmem/internal/obs"
	"searchmem/internal/search"
	"searchmem/internal/stats"
)

// Query is one user request.
type Query struct {
	// Terms are the query's term ids.
	Terms []uint32
}

// Result is an aggregated search response.
type Result struct {
	// Docs and Scores are the merged top-k, best first.
	Docs   []uint32
	Scores []float32
	// FromCache reports whether a cache server short-circuited the tree.
	FromCache bool
	// LatencyNS is the modeled end-to-end latency.
	LatencyNS float64
	// Partial reports that at least one leaf missed its deadline or failed
	// and the merge proceeded without it (always false for cache hits).
	Partial bool
	// LeavesAnswered counts the leaves whose results made the merge
	// (0 for cache hits, which never touch the leaf tier).
	LeavesAnswered int
}

// Executor evaluates a query against one shard into the caller's buffers
// and reports its modeled service latency. It is the one call shape across
// the leaf seam: the cluster hands every executor slices from its pooled
// scratch, so serving allocates nothing per leaf call.
type Executor interface {
	// SearchBuf writes the shard-local top-k into docs and scores (whose
	// lengths must be at least the executor's result size) and returns the
	// result count and the modeled execution latency in nanoseconds. A call
	// can fail outright (crashed shard, connection refused): the cluster
	// treats that like a missed deadline — it retries via hedging when
	// enabled and otherwise drops the leaf from the merge — and latencyNS
	// is then when the parent detects the fault.
	SearchBuf(terms []uint32, docs []uint32, scores []float32) (n int, latencyNS float64, err error)
}

// OutageExecutor is an Executor that can be administratively marked down
// and up again — the hook fleet scenarios use for correlated leaf-failure
// windows (rack loss, rolling restarts). See FaultyExecutor.SetDown.
type OutageExecutor interface {
	SetDown(down bool)
}

// SyntheticExecutor is a deterministic stand-in for a real leaf engine:
// results derive from a hash of (term, shard), latency from a base cost
// plus per-term cost with deterministic jitter. Each call packs its 4·TopK
// candidates into a scratch batch of search.ResultKey keys and hands the
// batch to the shared top-k kernel (search.TopK.PushKeys) in one call.
type SyntheticExecutor struct {
	// ShardID decorrelates results between leaves.
	ShardID uint32
	// TopK is the number of results returned.
	TopK int
	// BaseLatencyNS and PerTermNS build the service-time model.
	BaseLatencyNS, PerTermNS float64

	mu   sync.Mutex
	rng  *stats.RNG
	tk   *search.TopK // reused call to call, guarded by mu
	cand []uint64     // candidate keys, reused call to call, guarded by mu
}

// NewSyntheticExecutor returns an executor for the given shard.
func NewSyntheticExecutor(shardID uint32, topK int) *SyntheticExecutor {
	return &SyntheticExecutor{
		ShardID:       shardID,
		TopK:          topK,
		BaseLatencyNS: 2e6, // 2 ms base service time
		PerTermNS:     8e5,
		rng:           stats.NewRNG(uint64(shardID)*0x9e37 + 5),
	}
}

// fill writes the deterministic pseudo-results for terms into cand as
// search.ResultKey keys: docs scored by a hash chain over (shard, terms).
func (e *SyntheticExecutor) fill(cand []uint64, terms []uint32) {
	h := uint64(e.ShardID)*2654435761 + 1
	for _, t := range terms {
		h = h*6364136223846793005 + uint64(t)
	}
	x := h
	for i := range cand {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		doc := uint32(x) % 1_000_000
		score := float32(x%10_000) / 100
		cand[i] = search.ResultKey(doc, score)
	}
}

// SearchBuf implements Executor through an internal reusable selector and
// candidate batch, with no allocation after the first call.
func (e *SyntheticExecutor) SearchBuf(terms []uint32, docs []uint32, scores []float32) (int, float64, error) {
	e.mu.Lock()
	if e.tk == nil {
		e.tk = search.NewTopK(e.TopK)
		e.cand = make([]uint64, 4*e.TopK)
	} else {
		e.tk.Reset()
	}
	e.fill(e.cand, terms)
	e.tk.PushKeys(e.cand)
	n := e.tk.ResultsInto(docs, scores)
	jitter := e.rng.Exponential(0.15 * e.BaseLatencyNS)
	e.mu.Unlock()
	lat := e.BaseLatencyNS + float64(len(terms))*e.PerTermNS + jitter
	return n, lat, nil
}

// engineNSPerInstr converts an engine session's instruction cost to
// latency: 1/(IPC × freqGHz), about 1/(1.28 × 2.5 GHz).
const engineNSPerInstr = 0.31

// EngineExecutor adapts a real search.Session to the Executor interface.
// The session is guarded by a mutex (sessions are single-threaded).
type EngineExecutor struct {
	mu sync.Mutex
	// Session is the engine session evaluating queries.
	Session *search.Session
}

// SearchBuf implements Executor by copying the session's top-k into the
// caller's buffers. Tree mode bypasses the engine's query cache: cache hits
// store ids only, and fabricated rank-order scores must never merge against
// real BM25 scores from sibling shards — the serving tier has its own result
// cache at the cache-server level.
func (e *EngineExecutor) SearchBuf(terms []uint32, docs []uint32, scores []float32) (int, float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.Session.SkipCache = true
	before := e.Session.Instructions()
	r := e.Session.Execute(terms)
	lat := float64(e.Session.Instructions()-before) * engineNSPerInstr
	n := copy(docs, r.Docs)
	copy(scores, r.Scores)
	return n, lat, nil
}

// The serving tree's fixed costs, in virtual nanoseconds.
const (
	// networkHopNS is the one-way cost of each tree hop.
	networkHopNS float64 = 2e5
	// rootOverheadNS is the root's preprocessing cost (spell check etc.).
	rootOverheadNS float64 = 3e5
	// frontendOverheadNS is the web server's cost.
	frontendOverheadNS float64 = 1e5
)

// Config shapes the serving tree.
type Config struct {
	// Leaves is the number of leaf nodes (index shards).
	Leaves int
	// Fanout is the number of leaves per intermediate parent.
	Fanout int
	// TopK is the merged result size at every level.
	TopK int
	// CacheSlots sizes the cache-server tier (0 disables it).
	CacheSlots int
	// LeafCapacity is how many concurrent queries the leaf tier absorbs
	// before queueing inflates service times (0 disables the queueing
	// model). Latency is scaled by 1/(1-rho) with rho the instantaneous
	// utilization, the standard M/M/1-style congestion signal.
	LeafCapacity int
	// LeafDeadlineNS is the parent's per-leaf virtual-time deadline:
	// leaves that cannot answer (even via a hedged retry) by the deadline
	// are dropped from the merge and the result is marked Partial. 0
	// disables deadlines; the parent then waits for every leaf.
	LeafDeadlineNS float64
	// HedgeDelayNS is the virtual time after which a parent issues one
	// hedged retry of a still-pending leaf call to the next sibling shard
	// in the same parent; a leaf failure detected earlier triggers the
	// retry immediately. 0 disables hedging.
	HedgeDelayNS float64
	// Name labels the cluster's metric series ("cluster" when empty), so
	// several clusters can share one registry without colliding.
	Name string
	// Registry receives the cluster's metrics; nil gets a private registry
	// (Cluster.Metrics works either way).
	Registry *obs.Registry
	// Tracer, when non-nil, records one distributed trace per served query
	// — from Serve, RunLoad and RunScenario alike — without changing the
	// code path or any result. The span tree is reconstructed from the
	// fan-out outcomes the query left in the cluster's scratch; trace IDs
	// follow serve order (deterministic for single-driver runs).
	Tracer *obs.Tracer
}

// DefaultConfig returns a small but fully structured tree. Deadlines and
// hedging are off by default so the latency model matches the unhardened
// tier exactly.
func DefaultConfig() Config {
	return Config{
		Leaves:     12,
		Fanout:     4,
		TopK:       10,
		CacheSlots: 4096,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Leaves <= 0 || c.Fanout <= 0 || c.TopK <= 0 {
		return fmt.Errorf("serving: counts must be positive")
	}
	if c.CacheSlots < 0 {
		return fmt.Errorf("serving: negative cache slots")
	}
	if c.LeafDeadlineNS < 0 || c.HedgeDelayNS < 0 {
		return fmt.Errorf("serving: negative deadline or hedge delay")
	}
	return nil
}

// leaf is one leaf node.
type leaf struct {
	id   int
	exec Executor
}

// parent aggregates a group of leaves.
type parent struct {
	leaves []*leaf
}

// Cluster is the wired serving tree.
type Cluster struct {
	cfg     Config
	parents []*parent
	leaves  []*leaf // flat view in shard order, for outage injection
	cache   *cacheServer
	metrics *clusterMetrics

	// driveMu serializes the drives: Serve calls and whole RunLoad and
	// RunScenario runs. Its holder owns everything serve mutates — the
	// scratch, the cache tier, the query totals and the pending metric
	// updates — so the serve path takes no other lock, and a load run's
	// occupancy model and virtual timeline cannot be perturbed by another
	// driver.
	driveMu sync.Mutex
	scratch *serveScratch
}

// NewCluster wires a tree with the given executors (one per leaf; missing
// entries get synthetic executors).
func NewCluster(cfg Config, executors []Executor) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	name := cfg.Name
	if name == "" {
		name = "cluster"
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Cluster{cfg: cfg, metrics: newClusterMetrics(reg, name), scratch: newServeScratch(cfg)}
	if cfg.CacheSlots > 0 {
		c.cache = newCacheServer(cfg.CacheSlots, cfg.TopK)
	}
	var cur *parent
	for i := 0; i < cfg.Leaves; i++ {
		if cur == nil || len(cur.leaves) == cfg.Fanout {
			cur = &parent{}
			c.parents = append(c.parents, cur)
		}
		var exec Executor
		if i < len(executors) && executors[i] != nil {
			exec = executors[i]
		} else {
			exec = NewSyntheticExecutor(uint32(i), cfg.TopK)
		}
		lf := &leaf{id: i, exec: exec}
		cur.leaves = append(cur.leaves, lf)
		c.leaves = append(c.leaves, lf)
	}
	return c
}

// leafOutcome is one leaf call's contribution as seen by its parent.
type leafOutcome struct {
	docs   []uint32
	scores []float32
	// srcLeaf is the shard that produced the answer (the hedge sibling
	// when the hedge won).
	srcLeaf int
	// waitNS is how long the parent waited on this leaf before answering,
	// giving up, or hitting the deadline.
	waitNS float64
	// answered reports whether the leaf's docs made the merge.
	answered bool
	// hedged/hedgeWon/failed/timedOut feed the metrics registry. failed
	// marks a failed primary attempt even when the hedge recovered it;
	// timedOut marks a leaf dropped at the deadline.
	hedged, hedgeWon bool
	failed, timedOut bool
	// attemptLatNS[:attempts] are the raw service latencies of the primary
	// and (when issued) hedge attempts — a fixed array rather than a slice
	// so outcome records carry no per-query allocations.
	attemptLatNS [2]float64
	attempts     int
	// Trace-reconstruction timeline (virtual time from fan-out start):
	// the primary shard and its arrival, and — when hedged — the retry's
	// issue and arrival times plus the sibling shard it went to.
	primaryLeaf                   int
	primaryArrivalNS              float64
	hedgeIssuedNS, hedgeArrivalNS float64
	hedgeLeaf                     int
}

// cacheTag hashes query terms (FNV-1a).
func cacheTag(terms []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range terms {
		h ^= uint64(t)
		h *= 1099511628211
	}
	return h
}

// cacheServer is the cache tier: a FIFO of slots entries keyed by query
// tag, in one slab allocated when the cluster is built. Slot i holds up to
// topK docs and scores at docs[i*topK:] and scores[i*topK:], its length and
// its tag; index maps each live tag to its slot, and next is the slot the
// next put fills — the oldest entry's once every slot is live. Entries are
// copied on both put and get, never shared: the slices of a Result end up
// owned by the caller of Serve, who may mutate them, and a cached entry
// must survive that (TestCacheEntriesImmuneToCallerMutation). Nothing is
// allocated after the cluster is built. The holder of Cluster.driveMu owns
// it; it has no lock of its own.
type cacheServer struct {
	topK   int
	docs   []uint32  // slots × topK
	scores []float32 // slots × topK
	lens   []int32   // entry length per slot
	tags   []uint64  // entry tag per slot
	index  map[uint64]int32
	next   int
}

func newCacheServer(slots, topK int) *cacheServer {
	return &cacheServer{
		topK:   topK,
		docs:   make([]uint32, slots*topK),
		scores: make([]float32, slots*topK),
		lens:   make([]int32, slots),
		tags:   make([]uint64, slots),
		index:  make(map[uint64]int32, slots),
	}
}

// get copies the entry for tag into the caller's buffers (at least as long
// as any entry, i.e. TopK) and returns its length and whether it was present.
func (s *cacheServer) get(tag uint64, docs []uint32, scores []float32) (int, bool) {
	slot, ok := s.index[tag]
	if !ok {
		return 0, false
	}
	at := int(slot) * s.topK
	n := int(s.lens[slot])
	copy(scores, s.scores[at:at+n])
	return copy(docs, s.docs[at:at+n]), true
}

// put stores a copy of docs and scores (at most topK each) under tag in the
// next slot, evicting the entry there when every slot is live. tag must not
// be live: serve puts only the tag its get has just missed, and both run
// under driveMu.
func (s *cacheServer) put(tag uint64, docs []uint32, scores []float32) {
	slot := s.next
	if len(s.index) == len(s.tags) {
		delete(s.index, s.tags[slot])
	}
	at := slot * s.topK
	copy(s.docs[at:at+s.topK], docs)
	copy(s.scores[at:at+s.topK], scores)
	s.lens[slot], s.tags[slot] = int32(len(docs)), tag
	s.index[tag] = int32(slot)
	if s.next++; s.next == len(s.tags) {
		s.next = 0
	}
}

// flush empties the cache in place, keeping the slab and the index's
// storage — the shard-reload / cold-restart event of fleet scenarios.
func (s *cacheServer) flush() {
	clear(s.index)
	s.next = 0
}

// LoadStats summarizes a load-generation run.
type LoadStats struct {
	// Queries served and the cache-hit share.
	Queries   int64
	CacheHits int64
	// PartialResults counts queries answered with a degraded merge.
	PartialResults int64
	// MeanLatencyNS, P50, P95 and P99 describe the virtual latency
	// distribution.
	MeanLatencyNS, P50NS, P95NS, P99NS float64
	// QPS is modeled throughput: clients / mean latency for closed loops,
	// served queries / virtual duration for open-loop scenarios.
	QPS float64
}
