package serving

import (
	"errors"
	"sync/atomic"

	"searchmem/internal/stats"
)

// ErrInjectedFault is returned by FaultyExecutor for injected failures.
var ErrInjectedFault = errors.New("serving: injected leaf fault")

// flapLatencyNS is the fail-fast latency of flaps and outage windows, about
// one network hop.
const flapLatencyNS = 1e5

// FaultyExecutor wraps an Executor with deterministic fault injection. Each
// call independently draws three faults, in order:
//
//   - flap (probability FlapProb): the shard is unreachable; the call fails
//     fast after flapLatencyNS without doing any work.
//   - slow (probability SlowProb): the call's service latency is multiplied
//     by SlowFactor (a straggler).
//   - fail (probability FailProb): the call does its full work, then fails
//     (crash before responding), so the fault is detected only after the
//     whole service time.
//
// Randomness is derived from (Seed, terms) via stats.RNG, not from shared
// mutable state: a given query against a given shard always behaves the
// same no matter how goroutines are scheduled, which keeps simulations
// reproducible under concurrency. Hedged retries recover because the
// sibling shard carries a different Seed.
type FaultyExecutor struct {
	// Inner is the wrapped executor.
	Inner Executor
	// SlowProb and SlowFactor shape straggler injection (SlowFactor
	// defaults to 4 when unset).
	SlowProb   float64
	SlowFactor float64
	// FailProb is the probability of a post-work failure.
	FailProb float64
	// FlapProb is the probability of fail-fast unavailability.
	FlapProb float64
	// Seed decorrelates fault streams between shards.
	Seed uint64

	// down marks the shard administratively unavailable: every call fails
	// fast at the flap latency, without consuming any fault draws, until
	// SetDown(false). Fleet scenarios use it for correlated outage windows.
	down atomic.Bool
}

// SetDown implements OutageExecutor: it marks the shard down (or back up)
// for all subsequent calls, from any goroutine.
func (f *FaultyExecutor) SetDown(down bool) { f.down.Store(down) }

// callSeed derives the per-call fault-stream seed from (Seed, terms).
func (f *FaultyExecutor) callSeed(terms []uint32) uint64 {
	h := f.Seed*0x9e3779b97f4a7c15 + 0x1234567
	for _, t := range terms {
		h = h*6364136223846793005 + uint64(t) + 1
	}
	return h
}

// SearchBuf implements Executor: flap draw, inner call into the caller's
// buffers, then the slow and fail draws, in that order. The fault stream
// derives from (Seed, terms) through a stack-allocated RNG, so the call is
// allocation-free.
func (f *FaultyExecutor) SearchBuf(terms []uint32, docs []uint32, scores []float32) (int, float64, error) {
	if f.down.Load() {
		return 0, flapLatencyNS, ErrInjectedFault
	}
	var rng stats.RNG
	rng.Seed(f.callSeed(terms))
	if rng.Bool(f.FlapProb) {
		return 0, flapLatencyNS, ErrInjectedFault
	}
	n, lat, err := f.Inner.SearchBuf(terms, docs, scores)
	if err != nil {
		return 0, lat, err
	}
	if rng.Bool(f.SlowProb) {
		factor := f.SlowFactor
		if factor <= 0 {
			factor = 4
		}
		lat *= factor
	}
	if rng.Bool(f.FailProb) {
		return 0, lat, ErrInjectedFault
	}
	return n, lat, nil
}
