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
	// Queries and CacheHits mirror the cluster counters.
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

// mergeEvents carries a query's fault-tolerance event counts and leaf
// attempt latencies from the fan-out to the instruments so shared state is
// touched once per query.
type mergeEvents struct {
	hedges, hedgeWins  int64
	failures, timeouts int64
	attemptLatenciesNS []float64
}

func (e *mergeEvents) observe(o *leafOutcome) {
	if o.hedged {
		e.hedges++
	}
	if o.hedgeWon {
		e.hedgeWins++
	}
	if o.failed {
		e.failures++
	}
	if o.timedOut {
		e.timeouts++
	}
	e.attemptLatenciesNS = append(e.attemptLatenciesNS, o.attemptLatNS[:o.attempts]...)
}

// reset clears the record for reuse, keeping the latency slice's capacity —
// the serve kernel reuses one mergeEvents across queries.
func (e *mergeEvents) reset() {
	*e = mergeEvents{attemptLatenciesNS: e.attemptLatenciesNS[:0]}
}

// clusterMetrics holds the cluster's instrument handles in the unified
// obs.Registry (counters are atomic, histograms carry their own locks, so
// there is no registry-wide lock on the serve path). Series are labeled
// with the cluster name so several clusters — the degraded experiment's
// healthy/faulty pair, the SLO experiment's base/rebalanced pair — can
// share one registry and one export file.
type clusterMetrics struct {
	queries, cacheHits *obs.Counter
	hedges, hedgeWins  *obs.Counter
	failures, timeouts *obs.Counter
	partials           *obs.Counter
	frontend, probe    *obs.Histogram
	leafSvc, merge     *obs.Histogram
}

func newClusterMetrics(reg *obs.Registry, cluster string) *clusterMetrics {
	lbl := obs.L("cluster", cluster)
	counter := func(name string) *obs.Counter {
		return reg.Counter("serving_"+name+"_total", lbl)
	}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("serving_stage_latency_ns", lbl, obs.L("stage", name))
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

// recordCacheHit logs a query short-circuited by the cache tier.
func (m *clusterMetrics) recordCacheHit() {
	m.queries.Inc()
	m.cacheHits.Inc()
	m.frontend.Observe(frontendOverheadNS)
	m.probe.Observe(networkHopNS)
}

// recordServe logs a full tree traversal.
func (m *clusterMetrics) recordServe(probed bool, mergeNS float64, ev mergeEvents, partial bool) {
	m.queries.Inc()
	m.frontend.Observe(frontendOverheadNS)
	if probed {
		m.probe.Observe(networkHopNS)
	}
	for _, lat := range ev.attemptLatenciesNS {
		m.leafSvc.Observe(lat)
	}
	m.merge.Observe(mergeNS)
	m.hedges.Add(ev.hedges)
	m.hedgeWins.Add(ev.hedgeWins)
	m.failures.Add(ev.failures)
	m.timeouts.Add(ev.timeouts)
	if partial {
		m.partials.Inc()
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

// Metrics returns a snapshot of the cluster's per-stage metrics. The same
// series are exportable as JSON through the registry (Cluster.Registry).
func (c *Cluster) Metrics() Metrics {
	m := c.metrics
	return Metrics{
		Frontend:       stage(m.frontend, "frontend"),
		CacheProbe:     stage(m.probe, "cache-probe"),
		LeafService:    stage(m.leafSvc, "leaf-service"),
		Merge:          stage(m.merge, "merge"),
		Queries:        m.queries.Value(),
		CacheHits:      m.cacheHits.Value(),
		HedgesIssued:   m.hedges.Value(),
		HedgeWins:      m.hedgeWins.Value(),
		LeafFailures:   m.failures.Value(),
		LeafTimeouts:   m.timeouts.Value(),
		PartialResults: m.partials.Value(),
	}
}
