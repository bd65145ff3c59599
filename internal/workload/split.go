package workload

import (
	"runtime"
	"sync/atomic"

	"searchmem/internal/cache"
	"searchmem/internal/trace"
)

// A miss-heavy measured run keeps one vCPU busy in its L1–L3 (DESIGN.md
// §11, "Set partitions"). When a vCPU is spare, runGroups splits each group
// whose upper allows it into its two set partitions at the warm-up/measured
// boundary: the caller runs partition 0 of every window, one helper
// goroutine per call runs partition 1, and the caller merges the two ports
// and levels and drains the tails, the stream recorder and the observers as
// before. The results are bit-identical either way; only host time moves.

// splitMissShare is the cost gate: a group is split only when at least one
// warm-up L1 probe in splitMissShare missed. Below that the upper is
// L1-resident, the window's work is a few table loads per access, and the
// hot blocks crowd one partition, so two goroutines finish later than one.
// It is a property of the input, read off the warm-up, not a tuning knob.
const splitMissShare = 16

// spinPolls is how many times a waiting side polls the handoff before it
// starts yielding its processor between polls. The handoff never parks: a
// parked helper, once woken, lands on the waker's own run queue and waits
// for it instead of using the spare vCPU.
const spinPolls = 1024

// runsInFlight counts the runGroups calls in the process. A call splits
// only while it is below GOMAXPROCS — a vCPU is spare — so the workers of a
// parallel sweep that already fill the vCPUs stay serial.
var runsInFlight atomic.Int64

// measuredRuns and splitRuns count measured runs and those that split a
// group, for SplitRuns.
var measuredRuns, splitRuns atomic.Int64

// splitOverride, when non-zero, replaces the host-dependent gates (the spare
// vCPU and the warm-up miss share): +1 splits every group whose
// configuration allows it, -1 none. Only tests set it.
var splitOverride int

// SplitRuns returns how many measured runs this process has made and how
// many of them ran a group split by set. It depends on the host (GOMAXPROCS,
// what else was measuring), so it is for diagnostics only and never enters
// a rendered or exported result.
func SplitRuns() (split, runs int64) { return splitRuns.Load(), measuredRuns.Load() }

// splitGate reports whether the host and the input favour splitting: a vCPU
// is spare and the warm-up missed the L1 often enough. up holds the
// warm-up's counters.
func splitGate(up cache.UpperStats) bool {
	if splitOverride != 0 {
		return splitOverride > 0
	}
	if runsInFlight.Load() >= int64(runtime.GOMAXPROCS(0)) {
		return false
	}
	probes := up.L1I.Accesses() + up.L1D.Accesses()
	misses := up.L1I.TotalMisses() + up.L1D.TotalMisses()
	return probes > 0 && misses*splitMissShare >= probes
}

// splitGroups is the decision at the warm-up/measured boundary, made once
// per call: it splits every splittable group the gate admits (its counters
// already reset) and returns the helper that runs their partitions 1, or nil
// when no group split. warm holds each group's warm-up counters.
func splitGroups(groups []group, warm []cache.UpperStats) *splitHelper {
	var split []*group
	for gi := range groups {
		g := &groups[gi]
		if g.splittable && splitGate(warm[gi]) {
			g.twin = g.up.Split()
			if g.levels != nil {
				g.twinLv = make([]cache.HitLevel, 0, trace.DefaultBatchSize)
			}
			split = append(split, g)
		}
	}
	if len(split) == 0 {
		return nil
	}
	s := &splitHelper{groups: split, exited: make(chan struct{})}
	go s.run()
	return s
}

// splitHelper runs partition 1 of every split group, one measured-run
// window at a time, on its own goroutine. The caller posts a window, runs
// partition 0 of every split group, and waits for the helper's half; posted
// and done are the handoff, and win is written only between a wait and the
// next post.
type splitHelper struct {
	groups       []*group
	win          []trace.Access
	posted, done atomic.Uint64
	quit         atomic.Bool
	exited       chan struct{}
}

// post hands window b to the helper.
func (s *splitHelper) post(b []trace.Access) {
	s.win = b
	s.posted.Add(1)
}

// wait returns once the helper has finished the last posted window.
func (s *splitHelper) wait() {
	n := s.posted.Load()
	spinUntil(func() bool { return s.done.Load() == n })
}

// run is the helper goroutine: every posted window through every split
// group's partition 1, until stop.
func (s *splitHelper) run() {
	defer close(s.exited)
	for n := uint64(1); ; n++ {
		spinUntil(func() bool { return s.posted.Load() >= n || s.quit.Load() })
		if s.posted.Load() < n {
			return
		}
		for _, g := range s.groups {
			g.twinLv = g.twin.AccessBatch(s.win, g.twinLv[:0])
		}
		s.done.Store(n)
	}
}

// stop ends the helper and waits for it to exit; a nil helper is a no-op.
// runGroups defers it, so no helper outlives its call, whether the call
// returns or panics.
func (s *splitHelper) stop() {
	if s == nil {
		return
	}
	s.quit.Store(true)
	<-s.exited
}

// spinUntil polls cond until it holds, yielding the processor between polls
// after the first spinPolls.
func spinUntil(cond func() bool) {
	for i := 0; !cond(); i++ {
		if i >= spinPolls {
			runtime.Gosched()
		}
	}
}

// runSplit runs window b through a split group's partition 0 on the
// caller; the helper runs partition 1.
func (g *group) runSplit(b []trace.Access) {
	g.lv = g.up.AccessBatch(b, g.levels[:0])
}

// mergeSplit rebuilds the whole upper's port and levels for the window both
// partitions have run: the ports merged in serial order, each access's level
// the deeper of its two partitions' (a partition reports HitL1 for an access
// none of whose blocks it owns).
func (g *group) mergeSplit() (*cache.Port, []cache.HitLevel) {
	cache.MergePorts(&g.port, g.up.Port(), g.twin.Port())
	lv := g.lv
	for j, l := range g.twinLv[:len(lv)] {
		lv[j] = max(lv[j], l)
	}
	return &g.port, lv
}
