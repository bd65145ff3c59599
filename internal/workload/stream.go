package workload

import (
	"fmt"

	"searchmem/internal/cache"
)

// A group's L1–L3 are a function of the recording and the upper alone, so
// what they hand below the L3 over one measurement — the warm-up run's port
// stream, then the measured run's — can be kept and replayed into any
// number of tails later, without decoding the recording or running the
// L1–L3 again (DESIGN.md §10). That is what a Stream is. MeasureMulti
// retains nothing; an experiments.Context keeps one Stream per (recording,
// upper) that a sweep shares, so every later sweep over that upper replays
// tails only.

// StreamKey is everything a Stream depends on: the two recordings (warm-up
// and measured run), the upper, and whether the upper keyed L1 misses for a
// level predictor. It is comparable, and together with the Replayer names
// the stream.
type StreamKey struct {
	warm, main runKey
	upper      cache.HierarchyConfig
	l1Misses   bool
}

// String is a short human label: the upper's shape and the measured run.
func (k StreamKey) String() string {
	u := k.upper
	s := fmt.Sprintf("%d cores x %d SMT, L3 %d KiB %d-way %s", u.Cores, u.ThreadsPerCore, u.L3.Size>>10, u.L3.Assoc, u.L3.Policy)
	if k.l1Misses {
		s += ", L1 misses keyed"
	}
	return s + fmt.Sprintf("; %d threads, budget %d, seed %d", k.main.threads, k.main.budget, k.main.seed)
}

// StreamGroup is one group of configurations that share an upper, as
// MeasureMulti would form it.
type StreamGroup struct {
	// Key names the group's stream.
	Key StreamKey
	// Members are the indices of the group's configurations.
	Members []int
	// Live is set when a member needs the run itself (Prefetchers,
	// AccessObserver or BranchObserver), so the group cannot be served from
	// a Stream.
	Live bool
}

// StreamGroups partitions configurations that share one run (MeasureMulti's
// preconditions) into MeasureMulti's upper groups.
func StreamGroups(mcs []MeasureConfig) []StreamGroup {
	if len(mcs) == 0 {
		return nil
	}
	cfgs := prepare(mcs)
	warm, main := measureKeys(&cfgs[0])
	members, keys, l1Misses := groupUppers(cfgs)
	out := make([]StreamGroup, len(members))
	for g := range members {
		out[g] = StreamGroup{Key: StreamKey{warm: warm, main: main, upper: keys[g], l1Misses: l1Misses[g]}, Members: members[g]}
		for _, i := range members[g] {
			mc := &cfgs[i]
			out[g].Live = out[g].Live || mc.Prefetchers != nil || mc.AccessObserver != nil || mc.BranchObserver != nil
		}
	}
	return out
}

// Stream is one upper's post-L3 port stream over one measurement, with the
// upper's measured-phase counters and the measured run's workload counters:
// everything Measure needs that is not a tail's. It is immutable and may be
// replayed concurrently.
type Stream struct {
	key        StreamKey
	warm, main *cache.Stream // warm is nil without a warm-up run
	upper      cache.UpperStats
	run        Stats
}

// Key returns the stream's key.
func (s *Stream) Key() StreamKey { return s.key }

// Events returns the post-L3 events and L1-miss records the stream holds.
func (s *Stream) Events() int {
	n := s.main.Events() + s.main.Misses()
	if s.warm != nil {
		n += s.warm.Events() + s.warm.Misses()
	}
	return n
}

// Bytes returns the stream's encoded size.
func (s *Stream) Bytes() int64 {
	n := s.main.Bytes()
	if s.warm != nil {
		n += s.warm.Bytes()
	}
	return n
}

// RecordStream runs the upper that configurations mcs share over their run,
// once, and keeps its port stream. mcs must form one group that can be
// served from a stream (StreamGroups); RecordStream panics otherwise.
func RecordStream(r *Replayer, mcs []MeasureConfig) *Stream {
	key := streamKeyOf(mcs)
	cfgs := prepare(mcs)
	groups := []group{newGroup(cfgs, nil, key.upper, key.l1Misses)}
	groups[0].rec = &cache.StreamWriter{}
	run := runGroups(r, cfgs, nil, groups, newBranchTally(r, cfgs, nil))
	g := &groups[0]
	return &Stream{key: key, warm: g.warm, main: g.rec.Finish(), upper: g.upperStats(), run: run}
}

// streamKeyOf returns the key of the one stream-servable group mcs form.
func streamKeyOf(mcs []MeasureConfig) StreamKey {
	gs := StreamGroups(mcs)
	if len(gs) != 1 || gs[0].Live {
		panic("workload: configurations do not share one stream-servable upper")
	}
	return gs[0].Key
}

// Measure is MeasureMulti for configurations of this stream's group, from
// the stream: each configuration's tail in turn drains the warm-up run's
// ports, is reset, drains the measured run's and is reduced, so one tail is
// live at a time — decoding the stream again per tail costs less than the
// big L4s of a sweep held side by side. The Metrics equal MeasureMulti's
// field for field. A key may ask for fewer L1-miss records than the stream
// holds, never more; Measure panics on a configuration of another upper.
func (s *Stream) Measure(r *Replayer, mcs []MeasureConfig) []Metrics {
	if len(mcs) == 0 {
		return nil
	}
	if k := streamKeyOf(mcs); k.warm != s.key.warm || k.main != s.key.main || k.upper != s.key.upper || k.l1Misses && !s.key.l1Misses {
		panic("workload: configurations do not belong to this stream")
	}
	cfgs := prepare(mcs)
	bt := newBranchTally(r, cfgs, nil)
	out := make([]Metrics, len(cfgs))
	var port cache.Port
	for i := range cfgs {
		m := newMeasured(&cfgs[i])
		drain := func(p *cache.Port) { m.tail.Drain(p, nil) }
		if s.warm != nil {
			s.warm.Replay(&port, drain)
			m.reset()
		}
		s.main.Replay(&port, drain)
		out[i] = reduce(r, cfgs[i], s.upper, &m, bt.mispredicts(i), s.run)
	}
	return out
}
