package serving

import (
	"testing"

	"searchmem/internal/stats"
)

// naiveScenario is the reference of both loops, the same model written for
// clarity: with sc.Arrival set, RunScenario's open loop; with it nil,
// RunLoad's closed loop over sc's population, each client issuing budget
// queries (sc then carries no events). It shares only the serve kernel
// (Cluster.serve), the timeline (buildTimeline, applyAction) and the latency
// histogram with them. Each client owns its stream
// NewRNG(seed+cl*977).Split() and a Zipf sampler on it, indexed by client
// id. Pending issues are a plain slice searched linearly for the least
// (t, id); completions are a plain slice filtered on every issue. No
// sorting, no heap, no arrival order.
func naiveScenario(c *Cluster, sc Scenario, budget int) FleetStats {
	c.driveMu.Lock()
	defer c.driveMu.Unlock()

	n := sc.Clients
	open := sc.Arrival != nil
	rngs := make([]*stats.RNG, n)
	zipf := make([]*stats.Zipf, n)
	for cl := range rngs {
		rngs[cl] = stats.NewRNG(sc.Seed + uint64(cl)*977).Split()
		zipf[cl] = stats.NewZipf(rngs[cl], uint64(sc.VocabSize), sc.Skew)
	}

	type issue struct {
		t  float64
		cl int
	}
	var pending []issue
	var inflight int
	var peak int64
	if open {
		mean := float64(n) / sc.Arrival.At(0) * 1e9
		for cl, r := range rngs {
			if t := r.Exponential(mean); t < sc.DurationNS {
				pending = append(pending, issue{t, cl})
			}
		}
	} else {
		for cl := range rngs {
			pending = append(pending, issue{0, cl})
		}
		inflight, peak = n-1, int64(n)
	}

	acts := buildTimeline(sc.Events, c.cfg.Leaves)
	issued := make([]int, n)
	var done []float64
	hist := stats.NewHistogram(8)
	var partials, events, served int64
	var lastNS float64
	for len(pending) > 0 {
		m := 0
		for i, p := range pending {
			if p.t < pending[m].t || (p.t == pending[m].t && p.cl < pending[m].cl) {
				m = i
			}
		}
		t, cl := pending[m].t, pending[m].cl
		for len(acts) > 0 && acts[0].at <= t {
			c.applyAction(acts[0])
			acts = acts[1:]
			events++
		}
		left := done[:0]
		for _, d := range done {
			if d <= t {
				inflight--
				events++
			} else {
				left = append(left, d)
			}
		}
		done = left

		qid := zipf[cl].Next()
		lat, partial := c.serve([]uint32{uint32(qid), uint32(qid>>3) % uint32(sc.VocabSize)}, inflight)
		events++
		served++
		issued[cl]++
		hist.Add(lat)
		if partial {
			partials++
		}
		lastNS = max(lastNS, t+lat)

		next, again := t+lat, issued[cl] < budget
		if open {
			done = append(done, next)
			inflight++
			peak = max(peak, int64(inflight))
			next = t + rngs[cl].Exponential(float64(n)/sc.Arrival.At(t)*1e9)
			again = next < sc.DurationNS
		}
		if again {
			pending[m].t = next
		} else {
			pending[m] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
		}
	}

	c.metrics.publish()
	fs := FleetStats{
		LoadStats: LoadStats{
			Queries:        c.metrics.queries.total,
			CacheHits:      c.metrics.cacheHits.total,
			PartialResults: partials,
			MeanLatencyNS:  hist.Mean(),
			P50NS:          hist.Quantile(0.50),
			P95NS:          hist.Quantile(0.95),
			P99NS:          hist.Quantile(0.99),
		},
		Served:          served,
		EventsProcessed: events,
		DurationNS:      lastNS,
		PeakInflight:    peak,
	}
	if open {
		fs.OfferedQPS = sc.Arrival.BaseQPS
		if lastNS > 0 {
			fs.QPS = float64(served) / (lastNS * 1e-9)
		}
	} else if fs.MeanLatencyNS > 0 {
		fs.QPS = float64(n) / (fs.MeanLatencyNS * 1e-9)
	}
	return fs
}

// naiveFuzzScenario decodes one fuzz input into a valid scenario and a
// closed loop's budget:
//
//   - clients in [1, 3000], and a closed loop's queries per client in
//     [1, 4];
//   - an open loop's horizon in [1 ms, 1 s] and a base rate that gives each
//     client reach·horizon/20 expected issues, reach in [1, 200], capped so
//     a run serves a few thousand queries at most;
//   - a diurnal amplitude in [0, 0.9] over a period of half the horizon;
//   - bit 1 of shape adds one burst of factor 1–4 over a fifth of it, bit 2
//     a cache flush, bit 3 an outage of one to six leaves. Times are
//     sixteenths of the horizon.
//
// A closed loop has no rate curve, horizon or timeline.
func naiveFuzzScenario(clients uint16, seed uint64, horizon, reach uint16, qpc, amp, shape uint8, open bool) (Scenario, int) {
	n := 1 + int(clients)%3000
	sc := Scenario{Clients: n, VocabSize: 300, Skew: 1.1, Seed: seed}
	if !open {
		return sc, 1 + int(qpc%4)
	}
	d := 1e6 * float64(1+int(horizon)%1000)
	frac := func(k uint8) float64 { return float64(k%16) / 16 * d }
	if shape&4 != 0 {
		sc.Events = append(sc.Events, FleetEvent{AtNS: frac(shape >> 4), FlushCache: true})
	}
	if shape&8 != 0 {
		w := 1 + int(amp)%6
		sc.Events = append(sc.Events, FleetEvent{
			AtNS: frac(amp >> 4), OutageLeaf: int(seed % uint64(13-w)), OutageLeaves: w, OutageDurationNS: d / 4,
		})
	}
	perClient := min(float64(1+int(reach)%200)/20, 4000/float64(n))
	rc := &RateCurve{BaseQPS: float64(n) * perClient / d * 1e9}
	if a := float64(amp%10) / 10; a > 0 {
		rc.DiurnalAmplitude, rc.DiurnalPeriodNS = a, d/2
	}
	if shape&2 != 0 {
		start := frac(shape >> 3)
		rc.Bursts = []Burst{{StartNS: start, EndNS: start + d/5, Factor: float64(1 + qpc%4)}}
	}
	sc.Arrival, sc.DurationNS = rc, d
	return sc, 0
}

// FuzzScenarioMatchesNaive is the fleet engine's oracle: the engine — open
// loops through RunScenario, closed ones through RunLoad — and
// naiveScenario drive two freshly built, identical clusters — 12 faulty,
// hedged, deadline-bound leaves behind a small cache, with a leaf capacity
// of twice the clients, so every unit of occupancy moves latency — through
// the same load, and must agree on every FleetStats field (LoadStats for a
// closed loop) and on the clusters' Metrics. Closed loops start with every
// client tied at t = 0, so the id tie-break decides the whole run's
// interleaving there.
func FuzzScenarioMatchesNaive(f *testing.F) {
	f.Add(uint16(0), uint64(1), uint16(99), uint16(19), uint8(0), uint8(0), uint8(0), true)
	f.Add(uint16(499), uint64(2), uint16(499), uint16(3), uint8(0), uint8(5), uint8(0xfe), true)
	f.Add(uint16(2999), uint64(3), uint16(299), uint16(0), uint8(2), uint8(0x37), uint8(0x5f), true)
	f.Add(uint16(63), uint64(4), uint16(49), uint16(199), uint8(4), uint8(9), uint8(0x0f), true)
	f.Add(uint16(199), uint64(5), uint16(999), uint16(59), uint8(3), uint8(0x21), uint8(0xaa), true)
	f.Add(uint16(0), uint64(6), uint16(9), uint16(0), uint8(4), uint8(0), uint8(0), false)
	f.Add(uint16(15), uint64(7), uint16(9), uint16(0), uint8(3), uint8(0x42), uint8(0x6c), false)
	f.Add(uint16(999), uint64(8), uint16(29), uint16(0), uint8(1), uint8(0x83), uint8(0x9c), false)
	f.Add(uint16(2999), uint64(9), uint16(19), uint16(0), uint8(3), uint8(5), uint8(0x0c), false)
	f.Fuzz(func(t *testing.T, clients uint16, seed uint64, horizon, reach uint16, qpc, amp, shape uint8, open bool) {
		sc, budget := naiveFuzzScenario(clients, seed, horizon, reach, qpc, amp, shape, open)
		cfg := DefaultConfig()
		cfg.CacheSlots = 64
		cfg.LeafDeadlineNS = 40e6
		cfg.HedgeDelayNS = 5e6
		cfg.LeafCapacity = 2*sc.Clients + 64
		cEngine, cNaive := faultyCluster(cfg, 12, seed), faultyCluster(cfg, 12, seed)
		want := naiveScenario(cNaive, sc, budget)
		if open {
			if got := RunScenario(cEngine, sc); got != want {
				t.Fatalf("%d clients, horizon %g: RunScenario and the naive reference differ\nengine %+v\nnaive  %+v",
					sc.Clients, sc.DurationNS, got, want)
			}
		} else if got := RunLoad(cEngine, sc.Clients, budget, sc.VocabSize, sc.Skew, sc.Seed); got != want.LoadStats {
			t.Fatalf("%d clients, budget %d: RunLoad and the naive reference differ\nengine %+v\nnaive  %+v",
				sc.Clients, budget, got, want.LoadStats)
		}
		if mg, mw := cEngine.Metrics(), cNaive.Metrics(); mg != mw {
			t.Fatalf("cluster metrics differ\nengine %+v\nnaive  %+v", mg, mw)
		}
	})
}
