package main

import (
	"runtime"

	"searchmem/internal/serving"
)

// fleetBench drives the event-driven fleet engine: a modelled user
// population issuing open loop against a rate curve, on synthetic leaves.
// The hierarchy stack is idle here, so a cache or trace change predicts no
// change on this workload.
//
// Open loop: arrivals follow the rate curve in virtual time whatever the
// completions do. The generator runs in the same virtual time as the fleet,
// so it is never late: lateness is 0 by construction and reported as such.
type fleetBench struct {
	clients     int
	dayNS       float64
	warmQueries int // closed-loop queries per warm-up client
	probeEvents int // queries of each closed-loop probe
	seed        uint64
	clusters    []*serving.Cluster
	ref         serving.FleetStats
	tracedStats serving.FleetStats
	allocBytes  uint64 // heap bytes the traced scenario allocated
}

func newFleetBench(smoke bool) *fleetBench {
	if smoke {
		return &fleetBench{clients: 20_000, dayNS: 0.5e9, warmQueries: 20, probeEvents: 2_000}
	}
	// A 30 s virtual day: at the 2 s of BenchmarkFleetMillionUsers a pass is
	// 0.2 s, most of it initialising (and page-faulting in) a million
	// clients, which is also the noisiest thing the host does. At 30 s the
	// per-event path is 85% of the pass and the client state is still paid for.
	return &fleetBench{clients: 1_000_000, dayNS: 30e9, warmQueries: 500, probeEvents: 50_000}
}

// fleetConfig is the cluster of BenchmarkFleetMillionUsers.
func fleetConfig() serving.Config {
	cfg := serving.DefaultConfig()
	cfg.LeafCapacity = 400
	cfg.LeafDeadlineNS = 40e6
	cfg.HedgeDelayNS = 5e6
	return cfg
}

const (
	fleetVocab = 3000
	fleetSkew  = 0.9
)

func (b *fleetBench) newCluster() *serving.Cluster {
	cfg := fleetConfig()
	execs := make([]serving.Executor, cfg.Leaves)
	for i := range execs {
		execs[i] = &serving.FaultyExecutor{
			Inner:    serving.NewSyntheticExecutor(uint32(i), cfg.TopK),
			SlowProb: 0.01,
			FailProb: 0.002,
			Seed:     b.seed + uint64(i) + 1,
		}
	}
	return serving.NewCluster(cfg, execs)
}

// scenario is one virtual day: a diurnal curve, one x2 flash crowd, one
// cache flush and one 8-leaf outage window.
func (b *fleetBench) scenario() serving.Scenario {
	d := b.dayNS
	return serving.Scenario{
		Clients:   b.clients,
		VocabSize: fleetVocab,
		Skew:      fleetSkew,
		Seed:      b.seed,
		Arrival: &serving.RateCurve{
			BaseQPS:          20_000,
			DiurnalAmplitude: 0.25,
			DiurnalPeriodNS:  d / 2,
			Bursts:           []serving.Burst{{StartNS: 0.4 * d, EndNS: 0.5 * d, Factor: 2}},
		},
		DurationNS: d,
		Events: []serving.FleetEvent{
			{AtNS: 0.6 * d, FlushCache: true},
			{AtNS: 0.7 * d, OutageLeaf: 0, OutageLeaves: 8, OutageDurationNS: 0.1 * d},
		},
	}
}

// setup builds one fresh cluster per pass and fills its cache tier with a
// small closed loop (64 clients, below the leaf capacity), so the day starts
// on a warm cache and the mid-day flush is a real cold restart.
func (b *fleetBench) setup(seed uint64, passes int, tr *tracer) {
	b.seed = seed
	for i := 0; i < passes; i++ {
		s := tr.begin("serving.new_cluster")
		c := b.newCluster()
		tr.end(s)
		s = tr.begin("serving.warm")
		serving.RunLoad(c, 64, b.warmQueries, fleetVocab, fleetSkew, seed^0x77a3)
		tr.end(s)
		b.clusters = append(b.clusters, c)
	}
}

func fleetDigest(fs serving.FleetStats) string {
	d := newDigest()
	d.add("%+v", fs)
	return d.sum()
}

func (b *fleetBench) pass(i int, ck *checks) (int64, string) {
	fs := serving.RunScenario(b.clusters[i], b.scenario())
	ck.that(fs.Served > 0, "fleet_day: the day served no queries")
	b.ref = fs
	return fs.EventsProcessed, fleetDigest(fs)
}

func (b *fleetBench) tracedPass(i int, tr *tracer, ck *checks) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := tr.begin("serving.run")
	fs := serving.RunScenario(b.clusters[i], b.scenario())
	tr.end(s)
	runtime.ReadMemStats(&after)
	b.allocBytes = after.TotalAlloc - before.TotalAlloc
	b.tracedStats = fs
	ck.that(fs == b.ref, "fleet_day: traced FleetStats differ from the untraced pass")
	return fs.EventsProcessed
}

func (b *fleetBench) layers(tr *tracer, sum traceSummary) map[string]metric {
	probes := tr.begin("bench.probes")
	// One leaf search, the unit every fan-out multiplies.
	topK := fleetConfig().TopK
	exec := serving.NewSyntheticExecutor(0, topK)
	docs, scores := make([]uint32, topK), make([]float32, topK)
	terms := []uint32{0, 0}
	s := tr.begin("serving.leaf_probe")
	for i := 0; i < b.probeEvents; i++ {
		terms[0], terms[1] = uint32(i)%fleetVocab, uint32(i>>3)%fleetVocab
		if _, _, err := exec.SearchBuf(terms, docs, scores); err != nil {
			panic(err)
		}
	}
	tr.end(s)
	leafS := tr.seconds(s)

	// The closed loop at 1 and at 10k clients (BenchmarkRunLoadEngine's
	// cluster): one client is the serve path with a trivial heap, and the
	// slope from 1 to 10k to the open 1M is the heap and client-state share.
	closed := func(span string, clients int) float64 {
		c := serving.NewCluster(serving.DefaultConfig(), nil)
		s := tr.begin(span)
		serving.RunLoad(c, clients, max(1, b.probeEvents/clients), 400, 1.1, b.seed+9)
		tr.end(s)
		return tr.seconds(s) * 1e9 / float64(clients*max(1, b.probeEvents/clients))
	}
	closed1 := closed("serving.closed_1_probe", 1)
	closed10k := closed("serving.closed_10k_probe", min(10_000, b.clients))
	tr.end(probes)

	fs := b.tracedStats
	return map[string]metric{
		"serving.new_cluster_ms":          {frac(sum.spans["serving.new_cluster"].SelfS*1e3, float64(sum.spans["serving.new_cluster"].Calls)), "ms"},
		"serving.leaf_ns_per_search":      {leafS * 1e9 / float64(b.probeEvents), "ns/search"},
		"serving.closed_1_ns_per_event":   {closed1, "ns/event"},
		"serving.closed_10k_ns_per_event": {closed10k, "ns/event"},
		"serving.open_1m_ns_per_event":    {frac(sum.spans["serving.run"].SelfS*1e9, float64(fs.EventsProcessed)), "ns/event"},
		"serving.events":                  {float64(fs.EventsProcessed), "count"},
		"serving.cache_hit_frac":          {frac(float64(fs.CacheHits), float64(fs.Queries)), "frac"},
		"serving.partial_frac":            {frac(float64(fs.PartialResults), float64(fs.Served)), "frac"},
		"serving.peak_inflight":           {float64(fs.PeakInflight), "count"},
		"serving.bytes_per_client":        {float64(b.allocBytes) / float64(b.clients), "B/client"},
		"serving.generator_lateness_ns":   {0, "ns"},
	}
}
