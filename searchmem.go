// Package searchmem is a full reproduction of "Memory Hierarchy for Web
// Search" (Ayers, Ahn, Kozyrakis, Ranganathan — HPCA 2018) as a Go library.
//
// It provides, from scratch and with no dependencies beyond the standard
// library:
//
//   - a search-engine substrate (inverted index with compressed postings
//     and skip lists, BM25 + static-rank scoring, top-k, snippets, query
//     caching) whose execution emits instrumented memory-access and branch
//     traces (the reproduction's stand-in for the paper's Pin traces of
//     production search);
//   - a trace-driven functional cache simulator (set-associative /
//     direct-mapped / fully-associative, LRU/FIFO/random, CAT-style way
//     partitioning, inclusive hierarchies, and the paper's memory-side
//     eDRAM L4 victim cache), plus a one-pass LRU stack-distance profiler
//     for capacity sweeps;
//   - core-side models: branch predictors, TLBs, hardware prefetchers, a
//     calibrated Top-Down slot-accounting model, and SMT throughput models;
//   - the paper's analytical performance models (AMAT, Equation 1, the
//     performance-area model, power/energy accounting);
//   - calibrated workload profiles for the production services of Table I
//     and the SPEC CPU2006 / CloudSuite comparison points;
//   - a serving-tree simulator (front-end, cache servers, root, parents,
//     leaves) for request-level experiments; and
//   - a registered experiment per table and figure of the paper's
//     evaluation, regenerating each one.
//
// # Quickstart
//
//	res, err := searchmem.RunExperiment("table1", searchmem.FastOptions())
//	if err != nil { ... }
//	fmt.Println(res)
//
// See examples/ for runnable programs and EXPERIMENTS.md for the recorded
// paper-vs-reproduction comparison.
package searchmem

import (
	"fmt"

	"searchmem/internal/cache"
	"searchmem/internal/codegen"
	"searchmem/internal/core"
	"searchmem/internal/cpu"
	"searchmem/internal/experiments"
	"searchmem/internal/mem"
	"searchmem/internal/memsim"
	"searchmem/internal/model"
	"searchmem/internal/platform"
	"searchmem/internal/search"
	"searchmem/internal/serving"
	"searchmem/internal/trace"
	"searchmem/internal/workload"
)

// --- traces and instrumented memory ---

// Access is one memory reference of a trace.
type Access = trace.Access

// Segment labels an access with its software segment.
type Segment = trace.Segment

// Segment values.
const (
	Code  = trace.Code
	Heap  = trace.Heap
	Shard = trace.Shard
	Stack = trace.Stack
)

// Kind distinguishes instruction fetches, loads, and stores.
type Kind = trace.Kind

// Kind values.
const (
	Fetch = trace.Fetch
	Read  = trace.Read
	Write = trace.Write
)

// Space is an instrumented virtual address space.
type Space = memsim.Space

// NewSpace returns an address space whose arenas report every access to
// rec (nil disables recording).
func NewSpace(rec func(Access)) *Space { return memsim.NewSpace(rec) }

// WorkingSet measures distinct-byte footprints per segment.
type WorkingSet = trace.WorkingSet

// NewWorkingSet returns a working-set analyzer at the given block size.
func NewWorkingSet(blockSize int) *WorkingSet { return trace.NewWorkingSet(blockSize) }

// --- cache simulation ---

// CacheConfig describes one cache.
type CacheConfig = cache.Config

// Cache is a single functional cache.
type Cache = cache.Cache

// NewCache builds a cache from its configuration.
func NewCache(cfg CacheConfig) *Cache { return cache.New(cfg) }

// HierarchyConfig describes a multi-core cache hierarchy with optional L4.
type HierarchyConfig = cache.HierarchyConfig

// Hierarchy is the multi-level functional simulator.
type Hierarchy = cache.Hierarchy

// NewHierarchy builds a hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy { return cache.NewHierarchy(cfg) }

// AccessStats is one cache level's hit/miss counter snapshot.
type AccessStats = cache.AccessStats

// Policy selects a cache's replacement policy (CacheConfig.Policy).
type Policy = cache.Policy

// Replacement policies. The stochastic ones (Random, BRRIP, DRRIP) require
// an explicit CacheConfig.Seed for reproducibility.
const (
	PolicyLRU    = cache.LRU
	PolicyFIFO   = cache.FIFO
	PolicyRandom = cache.Random
	PolicySRRIP  = cache.SRRIP
	PolicyBRRIP  = cache.BRRIP
	PolicyDRRIP  = cache.DRRIP
)

// ParsePolicy converts a policy name (case-insensitive; see PolicyNames)
// back to its value. Unknown names are an error, never a silent fallback.
func ParsePolicy(name string) (Policy, error) { return cache.ParsePolicy(name) }

// PolicyNames lists the valid replacement-policy names for flag help.
func PolicyNames() string { return cache.PolicyNames() }

// PredictorConfig enables the per-PC cache-level predictor on a hierarchy
// (HierarchyConfig.Predictor). The predictor overlays probe accounting on
// the authoritative probe chain: hits, misses, and memory traffic are
// byte-identical predictor-on and predictor-off.
type PredictorConfig = cache.PredictorConfig

// PredictorStats is the level predictor's counter snapshot (coverage, hit
// rate, probe-skip rate).
type PredictorStats = cache.PredictorStats

// StackDist is the one-pass LRU stack-distance (reuse) profiler.
type StackDist = cache.StackDist

// NewStackDist returns a profiler at the given block granularity.
func NewStackDist(blockSize int) *StackDist { return cache.NewStackDist(blockSize) }

// --- search engine substrate ---

// EngineConfig configures the search-engine substrate.
type EngineConfig = search.Config

// Engine is a built search index bound to an instrumented address space.
type Engine = search.Engine

// Session is per-thread query-execution state.
type Session = search.Session

// DefaultEngineConfig returns a small engine configuration.
func DefaultEngineConfig() EngineConfig { return search.DefaultConfig() }

// BuildEngine generates a corpus, indexes it into space, and returns the
// engine. codeCfg may be nil to skip instruction-side modeling. An invalid
// cfg or codeCfg is an error, checked before space is touched.
func BuildEngine(cfg EngineConfig, space *Space, codeCfg *codegen.Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var prog *codegen.Program
	if codeCfg != nil {
		if err := codeCfg.Validate(); err != nil {
			return nil, err
		}
		arena := space.NewArena("code", trace.Code, codeCfg.CodeBytes())
		prog = codegen.New(*codeCfg, arena)
	}
	return search.Build(cfg, space, prog)
}

// --- platforms, workloads, measurement ---

// Platform describes a hardware platform (Table II).
type Platform = platform.Platform

// PLT1 returns the Intel Haswell-class platform.
func PLT1() Platform { return platform.PLT1() }

// PLT2 returns the IBM POWER8-class platform.
func PLT2() Platform { return platform.PLT2() }

// SearchWorkload describes a production-search-like profile.
type SearchWorkload = workload.SearchWorkload

// SyntheticWorkload describes a SPEC/CloudSuite-like profile.
type SyntheticWorkload = workload.SyntheticWorkload

// S1Leaf returns the primary calibrated leaf profile (shrink 1 = full
// scale; larger values shrink working sets for quick runs).
func S1Leaf(shrink int) SearchWorkload { return workload.S1Leaf(shrink) }

// Measurement plumbing.
type (
	// MeasureConfig configures one measurement run.
	MeasureConfig = workload.MeasureConfig
	// Metrics is the measured outcome (Table I rows, Figure 3 breakdown).
	Metrics = workload.Metrics
	// Sinks receives a run's event streams.
	Sinks = workload.Sinks
)

// Measure runs a workload against a simulated hierarchy and reduces the
// result through the calibrated core model.
func Measure(r workload.Runner, mc MeasureConfig) Metrics { return workload.Measure(r, mc) }

// --- analytical models ---

// Equation1 is the paper's published IPC model: IPC = -8.62e-3*AMAT + 1.78.
var Equation1 = model.Equation1

// AMATL3 computes the paper's post-L2 average memory access time.
func AMATL3(hitRate, tL3NS, tMemNS float64) float64 { return model.AMATL3(hitRate, tL3NS, tMemNS) }

// AMATWithL4 extends AMATL3 with a memory-side L4.
func AMATWithL4(hL3, hL4, tL3, tL4, tMEM, missPenalty float64) float64 {
	return model.AMATWithL4(hL3, hL4, tL3, tL4, tMEM, missPenalty)
}

// L4Design describes an Alloy-style latency-optimized L4 configuration.
type L4Design = model.L4Design

// BaselineL4 returns the paper's 40 ns direct-mapped parallel-lookup L4.
func BaselineL4(capacity int64) L4Design { return model.BaselineL4(capacity) }

// TopDownBreakdown is the Top-Down slot accounting of Figure 3.
type TopDownBreakdown = cpu.Breakdown

// --- tiered main memory (below the L4; figT1/figT2 extension) ---

// MemConfig describes a tiered memory system: a DRAM bank/row-buffer near
// tier plus an optional CXL-like far tier with hot/cold page placement.
// Attach one to MeasureConfig.Mem to replace the flat tMEM constant with
// simulated post-L4 memory timing.
type MemConfig = mem.Config

// DRAMConfig shapes the near-tier channel/bank/row-buffer timing model.
type DRAMConfig = mem.DRAMConfig

// FarMemConfig enables and shapes the far tier (capacity split, placement
// policy, epoch length, migration cost).
type FarMemConfig = mem.FarConfig

// MemStats is a tiered memory system's counter snapshot (row-buffer hit
// rate, far-tier traffic and residency, migration volume).
type MemStats = mem.Stats

// PagePolicy selects the far tier's hot/cold placement policy.
type PagePolicy = mem.PagePolicy

// Placement policies for FarMemConfig.Policy.
const (
	PolicyStatic        = mem.PolicyStatic
	PolicyLRUEpoch      = mem.PolicyLRUEpoch
	PolicyFreqThreshold = mem.PolicyFreqThreshold
)

// MemCostModel prices provisioned capacity per tier — the denominator of
// the tier sweep's QPS-per-memory-dollar metric.
type MemCostModel = mem.CostModel

// DefaultMemCost returns the illustrative near/far price gap used by figT1.
func DefaultMemCost() MemCostModel { return mem.DefaultCost }

// --- hierarchy design space (the paper's §IV contribution) ---

// HierarchyDesign is one SoC + package configuration (cores, L3, optional
// eDRAM L4).
type HierarchyDesign = core.Design

// DesignEvaluator scores hierarchy designs under iso-area / iso-power
// constraints using the calibrated models.
type DesignEvaluator = core.Evaluator

// DesignScore is one design's evaluation.
type DesignScore = core.Score

// DesignConstraint restricts the explored design space.
type DesignConstraint = core.Constraint

// DesignParams bundles the model constants a DesignEvaluator needs.
type DesignParams = core.Params

// CompareDesigns returns (improvement fraction, relative energy/query) of
// design vs baseline.
func CompareDesigns(baseline, design DesignScore) (improvement, energyPerQuery float64) {
	return core.Relative(baseline, design)
}

// --- serving tree ---

// Cluster is the Figure 1 serving tree.
type Cluster = serving.Cluster

// ClusterConfig shapes the serving tree.
type ClusterConfig = serving.Config

// Query is one user request to the serving tree.
type Query = serving.Query

// NewCluster wires a serving tree (executors may be nil for synthetic
// leaves).
func NewCluster(cfg ClusterConfig, executors []Executor) *Cluster {
	return serving.NewCluster(cfg, executors)
}

// DefaultClusterConfig returns a small but fully structured tree.
func DefaultClusterConfig() ClusterConfig { return serving.DefaultConfig() }

// ClusterMetrics is a snapshot of the serving tree's per-stage latency
// distributions and fault-tolerance counters (see Cluster.Metrics).
type ClusterMetrics = serving.Metrics

// FaultyExecutor wraps a leaf executor with deterministic slow/fail/flap
// fault injection for degradation studies.
type FaultyExecutor = serving.FaultyExecutor

// Executor is the leaf interface the serving tree drives: one call that
// writes a shard's top-k into caller buffers.
type Executor = serving.Executor

// LoadStats summarizes a load-generation run.
type LoadStats = serving.LoadStats

// RunLoad drives a cluster with a closed-loop Zipf-popular load on the
// event-heap engine, in deterministic virtual time.
func RunLoad(c *Cluster, clients, queriesPerClient, vocabSize int, skew float64, seed uint64) LoadStats {
	return serving.RunLoad(c, clients, queriesPerClient, vocabSize, skew, seed)
}

// Scenario describes one fleet load run: closed- or open-loop arrivals
// plus an operational timeline (cache flushes, correlated outages).
type Scenario = serving.Scenario

// RateCurve is the open-loop arrival-rate model (diurnal cycle plus
// flash-crowd bursts).
type RateCurve = serving.RateCurve

// Burst is one flash-crowd window on a RateCurve.
type Burst = serving.Burst

// FleetEvent is one scheduled operational event on a scenario timeline.
type FleetEvent = serving.FleetEvent

// FleetStats extends LoadStats with fleet-scenario accounting.
type FleetStats = serving.FleetStats

// RunScenario drives a cluster through one fleet scenario on the
// event-driven engine (millions of modeled users in bounded memory).
func RunScenario(c *Cluster, sc Scenario) FleetStats { return serving.RunScenario(c, sc) }

// --- experiments ---

// Options scales an experiment run.
type Options = experiments.Options

// FastOptions returns quick, reduced-scale options.
func FastOptions() Options { return experiments.Fast() }

// FullOptions returns calibrated full-scale options.
func FullOptions() Options { return experiments.Full() }

// ExperimentIDs lists the reproducible tables and figures in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment reproduces one of the paper's tables or figures and
// returns its rendering.
func RunExperiment(id string, opts Options) (string, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return "", fmt.Errorf("searchmem: unknown experiment %q", id)
	}
	res, err := e.Run(experiments.NewContext(opts))
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// NewExperimentContext returns a context that caches expensive workload
// builds across several RunExperimentIn calls.
func NewExperimentContext(opts Options) *experiments.Context {
	return experiments.NewContext(opts)
}

// RunExperimentIn is RunExperiment against a shared context.
func RunExperimentIn(ctx *experiments.Context, id string) (string, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return "", fmt.Errorf("searchmem: unknown experiment %q", id)
	}
	res, err := e.Run(ctx)
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}
