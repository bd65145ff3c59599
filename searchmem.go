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
//     evaluation, regenerating each one (cmd/searchsim).
//
// This package exports exactly what the programs under examples/ use:
// quickstart (§II leaf characterization), design-explorer (§IV hierarchy
// design) and serving-tree (the Figure 1 tree). The package Example is the
// quickstart README.md quotes. EXPERIMENTS.md records paper vs. reproduction.
package searchmem

import (
	"io"

	"searchmem/internal/cache"
	"searchmem/internal/core"
	"searchmem/internal/mem"
	"searchmem/internal/memsim"
	"searchmem/internal/model"
	"searchmem/internal/obs"
	"searchmem/internal/platform"
	"searchmem/internal/search"
	"searchmem/internal/serving"
	"searchmem/internal/trace"
	"searchmem/internal/workload"
)

// --- traces ---

// Access is one memory reference of a trace.
type Access = trace.Access

// Segment labels an access with its software segment (code, heap, index
// shard, stack).
type Segment = trace.Segment

// NumSegments is the number of distinct segments; Segment values run from 0
// to NumSegments-1.
const NumSegments = trace.NumSegments

// --- cache simulation ---

// CacheConfig describes one cache.
type CacheConfig = cache.Config

// HierarchyConfig describes a multi-core cache hierarchy with optional L4.
type HierarchyConfig = cache.HierarchyConfig

// Hierarchy is the multi-level functional simulator.
type Hierarchy = cache.Hierarchy

// NewHierarchy builds a hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy { return cache.NewHierarchy(cfg) }

// Policy selects a cache's replacement policy (CacheConfig.Policy,
// MeasureConfig.L3Policy).
type Policy = cache.Policy

// Replacement policies. BRRIP and DRRIP are stochastic; Measure derives
// their seeds from the run seed, so repeat runs are identical.
const (
	PolicyLRU   = cache.LRU
	PolicySRRIP = cache.SRRIP
	PolicyBRRIP = cache.BRRIP
	PolicyDRRIP = cache.DRRIP
)

// PredictorConfig enables the per-PC cache-level predictor on a hierarchy
// (HierarchyConfig.Predictor). The predictor overlays probe accounting on
// the authoritative probe chain: hits, misses, and memory traffic are
// byte-identical predictor-on and predictor-off.
type PredictorConfig = cache.PredictorConfig

// --- search engine substrate ---

// EngineConfig configures the search-engine substrate.
type EngineConfig = search.Config

// Engine is a built search index bound to an instrumented address space.
type Engine = search.Engine

// DefaultEngineConfig returns a small engine configuration.
func DefaultEngineConfig() EngineConfig { return search.DefaultConfig() }

// BuildEngine generates a corpus and indexes it into a fresh instrumented
// address space whose arenas report every access to rec (nil disables
// recording). An invalid cfg is an error, checked before anything is built.
func BuildEngine(cfg EngineConfig, rec func(Access)) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return search.Build(cfg, memsim.NewSpace(rec), nil)
}

// --- platforms, workloads, measurement ---

// Platform describes a hardware platform (Table II).
type Platform = platform.Platform

// PLT1 returns the Intel Haswell-class platform.
func PLT1() Platform { return platform.PLT1() }

// Runner is a built workload that Measure can execute.
type Runner = workload.Runner

// S1Leaf builds the primary calibrated leaf profile (shrink 1 = full scale;
// larger values shrink working sets for quick runs).
func S1Leaf(shrink int) Runner { return workload.S1Leaf(shrink).Build() }

// Measurement plumbing.
type (
	// MeasureConfig configures one measurement run.
	MeasureConfig = workload.MeasureConfig
	// Metrics is the measured outcome (Table I rows, Figure 3 breakdown).
	Metrics = workload.Metrics
)

// Measure runs a workload against a simulated hierarchy and reduces the
// result through the calibrated core model.
func Measure(r Runner, mc MeasureConfig) Metrics { return workload.Measure(r, mc) }

// --- hierarchy design space (the paper's §III-D/§IV contribution) ---

// Equation1 is the paper's published IPC model, IPC = -8.62e-3*AMAT + 1.78
// clamped below at 0.05, as a DesignParams.IPC function. It cannot see
// instruction misses, so it ignores codeHit.
func Equation1(amatNS, codeHit float64) float64 { return model.IPCFromAMAT(amatNS) }

// HierarchyDesign is one SoC + package configuration (cores, L3, optional
// eDRAM L4).
type HierarchyDesign = core.Design

// DesignEvaluator scores hierarchy designs under iso-area / iso-power
// constraints: hit rates from its curve, IPC from DesignParams.IPC, and the
// calibrated area and power models.
type DesignEvaluator = core.Evaluator

// DesignScore is one design's evaluation.
type DesignScore = core.Score

// DesignConstraint restricts the explored design space.
type DesignConstraint = core.Constraint

// DesignParams bundles the model constants a DesignEvaluator needs.
type DesignParams = core.Params

// MemCostModel prices provisioned capacity per tier of a near/far tiered
// main memory — the denominator of the tier sweep's QPS-per-memory-dollar
// metric.
type MemCostModel = mem.CostModel

// DefaultMemCost returns the illustrative near/far price gap used by figT1.
func DefaultMemCost() MemCostModel { return mem.DefaultCost }

// --- serving tree ---

// Cluster is the Figure 1 serving tree.
type Cluster = serving.Cluster

// ClusterConfig shapes the serving tree.
type ClusterConfig = serving.Config

// Query is one user request to the serving tree.
type Query = serving.Query

// NewCluster wires a serving tree. Leaves without an executor (a short or
// nil slice, or a nil entry) get a synthetic one.
func NewCluster(cfg ClusterConfig, executors []Executor) *Cluster {
	return serving.NewCluster(cfg, executors)
}

// DefaultClusterConfig returns a small but fully structured tree.
func DefaultClusterConfig() ClusterConfig { return serving.DefaultConfig() }

// Executor is the leaf interface the serving tree drives: one call that
// writes a shard's top-k into caller buffers.
type Executor = serving.Executor

// EngineExecutor serves a leaf from a real engine session, converting its
// instruction cost to latency.
type EngineExecutor = serving.EngineExecutor

// NewSyntheticExecutor returns a modeled leaf for the given shard: seeded
// results and a latency model, no index.
func NewSyntheticExecutor(shardID uint32, topK int) Executor {
	return serving.NewSyntheticExecutor(shardID, topK)
}

// FaultyExecutor wraps a leaf executor with deterministic slow/fail/flap
// fault injection for degradation studies.
type FaultyExecutor = serving.FaultyExecutor

// LoadStats summarizes a load-generation run.
type LoadStats = serving.LoadStats

// RunLoad drives a cluster with a closed-loop Zipf-popular load on the
// event-heap engine, in deterministic virtual time.
func RunLoad(c *Cluster, clients, queriesPerClient, vocabSize int, skew float64, seed uint64) LoadStats {
	return serving.RunLoad(c, clients, queriesPerClient, vocabSize, skew, seed)
}

// Tracer records one distributed trace per served query in virtual time
// when set as ClusterConfig.Tracer. The zero Tracer records; a nil *Tracer
// is off.
type Tracer = obs.Tracer

// WriteTraces writes the traces t has recorded since the last call as
// indented span trees, and forgets them.
func WriteTraces(w io.Writer, t *Tracer) error { return obs.WriteText(w, t.Take()) }
