package serving

import (
	"fmt"

	"searchmem/internal/obs"
)

// StageMetrics is a point-in-time summary of one serving-pipeline stage.
type StageMetrics struct {
	// Name identifies the stage (frontend, cache-probe, leaf-service,
	// merge).
	Name string
	// Count is the number of observations.
	Count int64
	// MeanNS/P50NS/P95NS/P99NS describe the stage's virtual-latency
	// distribution.
	MeanNS, P50NS, P95NS, P99NS float64
}

// String implements fmt.Stringer.
func (s StageMetrics) String() string {
	return fmt.Sprintf("%-12s n=%-7d mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms",
		s.Name, s.Count, s.MeanNS/1e6, s.P50NS/1e6, s.P95NS/1e6, s.P99NS/1e6)
}

// Metrics is a snapshot of the cluster's per-stage latency distributions
// and fault-tolerance counters.
type Metrics struct {
	// Frontend, CacheProbe, LeafService and Merge are the pipeline stages.
	// LeafService observes every leaf attempt (primaries and hedges, raw
	// service time before congestion); Merge observes the fan-out span a
	// query spent below the root (parent wait plus tree hops).
	Frontend, CacheProbe, LeafService, Merge StageMetrics
	// Queries and CacheHits count served queries and the cache tier's hits.
	Queries, CacheHits int64
	// HedgesIssued and HedgeWins count hedged retries and the share that
	// answered before the primary.
	HedgesIssued, HedgeWins int64
	// LeafFailures counts failed primary leaf attempts (including ones a
	// hedge later recovered); LeafTimeouts counts leaves dropped from a
	// merge at the deadline.
	LeafFailures, LeafTimeouts int64
	// PartialResults counts queries answered with a degraded merge.
	PartialResults int64
}

// Stages returns the pipeline stages in serving order.
func (m Metrics) Stages() []StageMetrics {
	return []StageMetrics{m.Frontend, m.CacheProbe, m.LeafService, m.Merge}
}

// pendingObs is the capacity of each stage's pending-observation buffer:
// 4 KiB, so a cluster's four buffers hold 16 KiB.
const pendingObs = 512

// tally is one counter series and its cumulative count, which the holder of
// Cluster.driveMu owns; the part past published has not reached the
// registry yet.
type tally struct {
	c                *obs.Counter
	total, published int64
}

func (t *tally) publish() {
	t.c.Add(t.total - t.published)
	t.published = t.total
}

// pendingHist is one stage histogram and its observations not yet in the
// registry, in observation order.
type pendingHist struct {
	h   *obs.Histogram
	buf []float64
}

func (p *pendingHist) observe(v float64) {
	p.buf = append(p.buf, v)
	if len(p.buf) == cap(p.buf) {
		p.publish()
	}
}

func (p *pendingHist) publish() {
	p.h.ObserveBatch(p.buf)
	p.buf = p.buf[:0]
}

// clusterMetrics holds the cluster's instruments in the unified
// obs.Registry and the updates not yet published to them. Whoever holds
// Cluster.driveMu owns the pending part: serve counts into plain ints and
// appends to preallocated buffers without a lock, and publish moves both
// into the registry at the end of every drive and whenever a buffer fills,
// one lock or atomic add per series, observations in order (so every sum,
// and with it every export, is bit-identical to observing one at a time).
// Series are labeled with the cluster name so several clusters — the
// degraded experiment's healthy/faulty pair, the SLO experiment's
// base/rebalanced pair — can share one registry and one export file.
type clusterMetrics struct {
	queries, cacheHits tally
	hedges, hedgeWins  tally
	failures, timeouts tally
	partials           tally
	frontend, probe    pendingHist
	leafSvc, merge     pendingHist
}

func newClusterMetrics(reg *obs.Registry, cluster string) *clusterMetrics {
	lbl := obs.L("cluster", cluster)
	counter := func(name string) tally {
		return tally{c: reg.Counter("serving_"+name+"_total", lbl)}
	}
	stage := func(name string) pendingHist {
		h := reg.Histogram("serving_stage_latency_ns", lbl, obs.L("stage", name))
		return pendingHist{h: h, buf: make([]float64, 0, pendingObs)}
	}
	return &clusterMetrics{
		queries:   counter("queries"),
		cacheHits: counter("cache_hits"),
		hedges:    counter("hedges_issued"),
		hedgeWins: counter("hedge_wins"),
		failures:  counter("leaf_failures"),
		timeouts:  counter("leaf_timeouts"),
		partials:  counter("partial_results"),
		frontend:  stage("frontend"),
		probe:     stage("cache-probe"),
		leafSvc:   stage("leaf-service"),
		merge:     stage("merge"),
	}
}

// publish moves every pending update into the registry.
func (m *clusterMetrics) publish() {
	for _, t := range [...]*tally{&m.queries, &m.cacheHits, &m.hedges, &m.hedgeWins, &m.failures, &m.timeouts, &m.partials} {
		t.publish()
	}
	for _, p := range [...]*pendingHist{&m.frontend, &m.probe, &m.leafSvc, &m.merge} {
		p.publish()
	}
}

// recordCacheHit logs a query short-circuited by the cache tier.
func (m *clusterMetrics) recordCacheHit() {
	m.queries.total++
	m.cacheHits.total++
	m.frontend.observe(frontendOverheadNS)
	m.probe.observe(networkHopNS)
}

// recordLeaf logs one leaf's resolved outcome in a fan-out.
func (m *clusterMetrics) recordLeaf(o *leafOutcome) {
	for _, lat := range o.attemptLatNS[:o.attempts] {
		m.leafSvc.observe(lat)
	}
	if o.hedged {
		m.hedges.total++
	}
	if o.hedgeWon {
		m.hedgeWins.total++
	}
	if o.failed {
		m.failures.total++
	}
	if o.timedOut {
		m.timeouts.total++
	}
}

// recordServe logs a full tree traversal once its leaves are recorded.
func (m *clusterMetrics) recordServe(probed bool, mergeNS float64, partial bool) {
	m.queries.total++
	m.frontend.observe(frontendOverheadNS)
	if probed {
		m.probe.observe(networkHopNS)
	}
	m.merge.observe(mergeNS)
	if partial {
		m.partials.total++
	}
}

// stage reduces one histogram instrument to a StageMetrics summary.
func stage(h *obs.Histogram, name string) StageMetrics {
	return StageMetrics{
		Name:   name,
		Count:  h.Count(),
		MeanNS: h.Mean(),
		P50NS:  h.Quantile(0.50),
		P95NS:  h.Quantile(0.95),
		P99NS:  h.Quantile(0.99),
	}
}

// Metrics returns a snapshot of the cluster's per-stage metrics as of its
// last completed drive (a drive publishes its updates as it ends). The same
// series are exportable as JSON through the registry (Config.Registry).
func (c *Cluster) Metrics() Metrics {
	m := c.metrics
	return Metrics{
		Frontend:       stage(m.frontend.h, "frontend"),
		CacheProbe:     stage(m.probe.h, "cache-probe"),
		LeafService:    stage(m.leafSvc.h, "leaf-service"),
		Merge:          stage(m.merge.h, "merge"),
		Queries:        m.queries.c.Value(),
		CacheHits:      m.cacheHits.c.Value(),
		HedgesIssued:   m.hedges.c.Value(),
		HedgeWins:      m.hedgeWins.c.Value(),
		LeafFailures:   m.failures.c.Value(),
		LeafTimeouts:   m.timeouts.c.Value(),
		PartialResults: m.partials.c.Value(),
	}
}
