package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// frac is a/b, or 0 when nothing was counted.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checks counts the correctness checks a child attempted and failed. A
// failed check is a failed operation: the command exits non-zero.
type checks struct {
	Attempted int      `json:"checks_attempted"`
	Failed    int      `json:"checks_failed"`
	Failures  []string `json:"failures,omitempty"`
}

func (c *checks) that(ok bool, format string, args ...any) {
	c.Attempted++
	if !ok {
		c.Failed++
		c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
	}
}

// digest folds a workload's modelled statistics into the sim_digest. They
// are deterministic, so they are compared exactly rather than gated: a
// simulator-only speed-up leaves every digest unchanged, a model change
// moves one and says so.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) add(format string, args ...any) { fmt.Fprintf(d.h, format, args...) }

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// bench is one workload. setup builds the inputs of the given number of
// passes; pass runs one timed pass through the simulator's own entry point;
// tracedPass does the same work with a span around each call into a layer
// and checks its results against the pass before it; layers runs any extra
// probes and names the per-layer metrics.
type bench interface {
	setup(seed uint64, passes int, tr *tracer)
	pass(i int, ck *checks) (ops int64, digest string)
	tracedPass(i int, tr *tracer, ck *checks) (ops int64)
	layers(tr *tracer, sum traceSummary) map[string]metric
}

// workloadDef names a workload and fixes its size. passSeconds is what one
// pass took on the sizing host (2 cores); it only converts -seconds into a
// whole number of passes, so the work a run does is a function of its
// arguments and not of how fast the host is. The host the benchmark was
// sized on drifts by tens of percent over tens of seconds, so a workload
// gets as many children as the run-time budget allows and reports medians.
type workloadDef struct {
	name, op, why  string
	children       int // untraced children in a full run
	driverChildren int // untraced children under -workload, where the caller repeats runs
	passSeconds    float64
	new            func(smoke bool) bench
}

var workloads = []workloadDef{
	{
		name: "replay_deep", op: "one replayed access x sweep point",
		why:      "miss-heavy S1-leaf trace over an 8-point L3 sweep with L4 and tiered memory: cache miss path and internal/mem dominate",
		children: 6, driverChildren: 6, passSeconds: 2.6,
		new: func(smoke bool) bench { return newReplayBench(deepConfig(smoke)) },
	},
	{
		name: "replay_resident", op: "one replayed access",
		why:      "L1/L2-resident perlbench trace decoded from a spill file: cache hit path and internal/trace decode dominate",
		children: 7, driverChildren: 7, passSeconds: 2.1,
		new: func(smoke bool) bench { return newReplayBench(residentConfig(smoke)) },
	},
	{
		name: "fleet_day", op: "one fleet engine event",
		why:      "open-loop 1M-client virtual day on the serving fleet: only internal/serving works, so cache and trace changes predict no change",
		children: 10, driverChildren: 10, passSeconds: 1.0,
		new: func(smoke bool) bench { return newFleetBench(smoke) },
	},
	{
		name: "paper_suite", op: "one experiment rendered",
		why:      "the frozen 33-experiment fast suite as users run it (searchsim -fast all): whole stack, sweeps in parallel, catches glue regressions",
		children: 3, driverChildren: 1, passSeconds: 15,
		new: func(smoke bool) bench { return newSuiteBench(smoke) },
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// passesFor converts the -seconds of a run into passes per child: the run's
// timed phase is shared by its children, and a workload whose single pass
// is longer than a child's share runs it once.
func (w workloadDef) passesFor(seconds float64, children int) int {
	return max(1, int(seconds/float64(max(1, children))/w.passSeconds+0.5))
}
