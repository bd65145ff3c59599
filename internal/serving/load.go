package serving

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"searchmem/internal/stats"
)

// loadEngine is the event-driven core of RunLoad and RunScenario. Pending
// issue events are {time, client id} entries ordered by (time, id) in two
// parts of one array:
//
//   - arrivals holds every client's first issue, sorted once by sortArrivals
//     (a closed loop's t = 0 population is laid out sorted); arrivals[fi:]
//     are still pending.
//   - heap is a 4-ary min-heap of re-issues that lives in the drained prefix
//     arrivals[:fi]. A client has at most one pending issue, so every client
//     in the heap has consumed a distinct arrival: len(heap) <= fi, a push
//     never grows the array and never touches a pending arrival.
//
// The next event is the earlier of arrivals[fi] and heap[0]. A comparison
// reads the two 16-byte entries it compares and nothing else; the four
// children of a heap slot are one contiguous 64 bytes. The order is total
// (ids are unique), so the pop sequence is the sorted sequence of the keys:
// no statistic can depend on how the queue is laid out. Per-client state is
// struct-of-arrays beside it: 16 B of RNG, 4 B of issue count when there is
// a budget. A closed loop queues every client (36 B per client); an open
// loop queues only arrivals inside the horizon (16 B per client plus 16 B
// per queued arrival). The whole per-event path — peek, Zipf draw, term
// synthesis, Cluster.serve, histogram add, push or replace-min — is
// allocation-free, pinned by the ZeroAlloc oracles in alloc_test.go.
type loadEngine struct {
	arrivals []event     // first issues sorted by (t, id); arrivals[fi:] pending
	fi       int         // index of the next pending first arrival
	heap     []event     // 4-ary min-heap of re-issues by (t, id), backed by arrivals[:0]
	rng      []stats.RNG // per-client random stream (query popularity, think time)
	issued   []int32     // queries issued so far per client; nil without a budget
	shape    *stats.ZipfShape
	vocab    uint32
	terms    [2]uint32 // scratch for the current query's term tuple
}

// event is one pending issue: client id is due at virtual time t.
type event struct {
	t  float64
	id int32
}

// before orders events by (issue time, client id): on equal times the
// lowest-indexed client goes first.
func (a event) before(b event) bool {
	return a.t < b.t || (a.t == b.t && a.id < b.id)
}

// compareEvents is before as a three-way comparison, for slices.SortFunc.
func compareEvents(a, b event) int {
	switch {
	case a.before(b):
		return -1
	case b.before(a):
		return 1
	}
	return 0
}

// newLoadEngine seeds per-client state: client cl's popularity stream is
// NewRNG(seed+cl*977).Split(), reproduced here through a stack RNG so
// construction allocates only the stream array. The caller fills the queue
// with queueAll or setArrivals.
func newLoadEngine(clients, vocabSize int, skew float64, seed uint64) *loadEngine {
	e := &loadEngine{
		rng:   make([]stats.RNG, clients),
		shape: stats.NewZipfShape(uint64(vocabSize), skew),
		vocab: uint32(vocabSize),
	}
	var seeder stats.RNG
	for cl := range e.rng {
		seeder.Seed(seed + uint64(cl)*977)
		e.rng[cl].Seed(seeder.Uint64())
	}
	return e
}

// setArrivals makes sorted first arrivals the queue, with an empty re-issue
// heap in their drained prefix.
func (e *loadEngine) setArrivals(sorted []event) {
	e.arrivals, e.fi, e.heap = sorted, 0, sorted[:0]
}

// queueAll queues every client at time zero, the start of a closed loop.
// Equal times and ids ascending: already sorted.
func (e *loadEngine) queueAll() {
	a := make([]event, len(e.rng))
	for cl := range a {
		a[cl].id = int32(cl)
	}
	e.setArrivals(a)
}

// peek returns the earliest pending event, whether it sits in the heap
// (rather than at the arrivals' front), and whether there is one at all.
func (e *loadEngine) peek() (ev event, inHeap, ok bool) {
	if e.fi < len(e.arrivals) {
		ev = e.arrivals[e.fi]
		if len(e.heap) > 0 && e.heap[0].before(ev) {
			return e.heap[0], true, true
		}
		return ev, false, true
	}
	if len(e.heap) > 0 {
		return e.heap[0], true, true
	}
	return event{}, false, false
}

// reissue replaces the event peek returned with the same client's next
// issue ev: one sift in the heap either way.
func (e *loadEngine) reissue(inHeap bool, ev event) {
	if inHeap {
		e.siftDown(0, ev)
		return
	}
	e.fi++
	e.push(ev)
}

// retire removes the event peek returned: its client issues no more.
func (e *loadEngine) retire(inHeap bool) {
	if inHeap {
		e.popMin()
		return
	}
	e.fi++
}

// push adds ev to the heap in the slot after its last, which lies inside
// the drained prefix (len(heap) < fi once the client's arrival is consumed).
func (e *loadEngine) push(ev event) {
	h := e.heap[:len(e.heap)+1]
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.heap = h
}

// siftDown places ev at or below slot i, moving earlier children up.
func (e *loadEngine) siftDown(i int, ev event) {
	h := e.heap
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		m, first := c, h[c] // earliest child, held in registers across the scan
		for j := c + 1; j < c+4 && j < len(h); j++ {
			if x := h[j]; x.before(first) {
				m, first = j, x
			}
		}
		if !first.before(ev) {
			break
		}
		h[i] = first
		i = m
	}
	h[i] = ev
}

// popMin removes the earliest heap entry (heap[0]).
func (e *loadEngine) popMin() {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
}

// Geometry of sortArrivals: 2^16 equal-width buckets over [0, latest
// arrival], partitioned by two 256-way passes on the bucket number's high
// then low byte. A bucket of at most finishInsertMax entries is finished by
// insertion; a larger one (equal or tightly packed times) by
// slices.SortFunc, so a skewed input costs O(n log n), never O(n²).
const (
	arrivalBuckets  = 1 << 16
	finishInsertMax = 32
)

// sortArrivals orders a by (t, id) in place, in O(n) for times spread over
// their range. Times must be finite and non-negative (an exponential draw).
// The bucket of a time is t·scale, so buckets ascend with t and the finish
// only has to order each bucket's own entries.
func sortArrivals(a []event) {
	if len(a) < 2 {
		return
	}
	var latest float64
	for i := range a {
		latest = max(latest, a[i].t)
	}
	scale := arrivalBuckets / latest
	if scale > math.MaxFloat64 { // latest is 0 or below 2^-1008: keep 0·scale = 0
		scale = math.MaxFloat64
	}
	var ends, subEnds [256]int
	flagPass(a, scale, 8, &ends)
	lo := 0
	for _, hi := range ends {
		if sub := a[lo:hi]; len(sub) > 1 {
			flagPass(sub, scale, 0, &subEnds)
			slo := 0
			for _, shi := range subEnds {
				finishBucket(sub[slo:shi])
				slo = shi
			}
		}
		lo = hi
	}
}

// arrivalBucket is the bucket of time t at the given scale.
func arrivalBucket(t, scale float64) uint32 {
	if k := t * scale; k < arrivalBuckets-1 {
		return uint32(k)
	}
	return arrivalBuckets - 1
}

// flagPass is one in-place American-flag pass: it partitions a by byte
// (bucket >> shift) & 255 of each entry's bucket, moving every misplaced
// entry along a cycle straight to its partition, and records the
// partitions' ends.
func flagPass(a []event, scale float64, shift uint, ends *[256]int) {
	var head [256]int
	for i := range a {
		head[arrivalBucket(a[i].t, scale)>>shift&255]++
	}
	sum := 0
	for b, n := range head {
		head[b] = sum
		sum += n
		ends[b] = sum
	}
	for b := range head {
		for head[b] < ends[b] {
			v := a[head[b]]
			for {
				d := int(arrivalBucket(v.t, scale) >> shift & 255)
				if d == b {
					break
				}
				a[head[d]], v = v, a[head[d]]
				head[d]++
			}
			a[head[b]] = v
			head[b]++
		}
	}
}

// finishBucket orders one bucket by (t, id).
func finishBucket(a []event) {
	if len(a) > finishInsertMax {
		slices.SortFunc(a, compareEvents)
		return
	}
	for i := 1; i < len(a); i++ {
		v, j := a[i], i
		for ; j > 0 && v.before(a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
}

// drawTerms synthesizes the client's next query: a Zipf-popular query id
// expanded into a two-term tuple.
func (e *loadEngine) drawTerms(cl int32) []uint32 {
	qid := e.shape.Next(&e.rng[cl])
	e.terms[0] = uint32(qid)
	e.terms[1] = uint32(qid>>3) % e.vocab
	return e.terms[:]
}

// RunLoad drives the cluster with a closed-loop load of clients issuing
// queries drawn Zipf-popular from vocabSize (popular queries repeat, which
// is what makes the cache tier effective). The closed loop runs in virtual
// time: every client always has exactly one query in flight (zero think
// time), so queries are issued one at a time in virtual-completion order
// and each query is served against a standing occupancy of the other
// clients-1. The query interleaving — and with it every executor's
// service-jitter RNG draw sequence — is therefore a pure function of the
// seed for any client count (DESIGN.md §14). RunLoad is the closed-loop
// special case of RunScenario.
func RunLoad(c *Cluster, clients, queriesPerClient, vocabSize int, skew float64, seed uint64) LoadStats {
	if clients <= 0 || queriesPerClient <= 0 || vocabSize <= 0 {
		panic("serving: load parameters must be positive")
	}
	fs := RunScenario(c, Scenario{
		Clients:          clients,
		QueriesPerClient: queriesPerClient,
		VocabSize:        vocabSize,
		Skew:             skew,
		Seed:             seed,
	})
	return fs.LoadStats
}

// Burst multiplies a RateCurve's arrival rate by Factor inside
// [StartNS, EndNS) — a flash crowd.
type Burst struct {
	StartNS, EndNS float64
	Factor         float64
}

// RateCurve is a time-varying arrival-rate model for open-loop scenarios:
// a base rate modulated by a sinusoidal diurnal cycle and stacked
// multiplicative burst windows.
type RateCurve struct {
	// BaseQPS is the mean offered load in queries per virtual second.
	BaseQPS float64
	// DiurnalAmplitude in [0, 1) scales a sine modulation with period
	// DiurnalPeriodNS: rate(t) = BaseQPS * (1 + A*sin(2πt/T)). Zero
	// amplitude or period disables it.
	DiurnalAmplitude float64
	DiurnalPeriodNS  float64
	// Bursts are flash-crowd windows; overlapping windows stack
	// multiplicatively.
	Bursts []Burst
}

// validate rejects a curve with a non-finite field: an infinite rate draws
// zero interarrivals, so virtual time would stop and the run never end, and
// a NaN one poisons every arrival time.
func (rc *RateCurve) validate() {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(rc.BaseQPS) || !finite(rc.DiurnalAmplitude) || !finite(rc.DiurnalPeriodNS) {
		panic("serving: rate curve requires a finite base rate, diurnal amplitude and period")
	}
	for _, b := range rc.Bursts {
		if !finite(b.StartNS) || !finite(b.EndNS) || !finite(b.Factor) {
			panic("serving: rate curve burst requires a finite start, end and factor")
		}
	}
}

// At returns the offered rate in queries per second at virtual time t.
func (rc *RateCurve) At(tNS float64) float64 {
	r := rc.BaseQPS
	if rc.DiurnalAmplitude != 0 && rc.DiurnalPeriodNS > 0 {
		r *= 1 + rc.DiurnalAmplitude*math.Sin(2*math.Pi*tNS/rc.DiurnalPeriodNS)
	}
	for i := range rc.Bursts {
		b := &rc.Bursts[i]
		if tNS >= b.StartNS && tNS < b.EndNS {
			r *= b.Factor
		}
	}
	if r < 1e-6 {
		r = 1e-6 // rate floor keeps interarrival draws finite
	}
	return r
}

// FleetEvent is one scheduled operational event on a scenario timeline.
type FleetEvent struct {
	// AtNS is the virtual time at which the event fires (applied before
	// the first query issued at or after it).
	AtNS float64
	// FlushCache empties the cache tier — a shard reload / cold restart.
	FlushCache bool
	// OutageLeaves > 0 marks leaves [OutageLeaf, OutageLeaf+OutageLeaves)
	// administratively down for OutageDurationNS — a correlated failure
	// such as a rack or a whole parent going dark. The range must lie
	// inside the cluster and the duration be positive. Executors must
	// support outage injection (OutageExecutor, e.g. FaultyExecutor);
	// others are skipped silently.
	OutageLeaf, OutageLeaves int
	OutageDurationNS         float64
}

// Scenario describes one fleet load run for RunScenario.
type Scenario struct {
	// Clients is the modeled user population.
	Clients int
	// QueriesPerClient bounds each client's issue budget. Closed loop
	// (Arrival == nil) requires it > 0; open loop treats 0 as unlimited,
	// with the horizon as the only bound.
	QueriesPerClient int
	// VocabSize and Skew shape query popularity (Zipf), as in RunLoad.
	VocabSize int
	Skew      float64
	// Seed makes the run reproducible; same-cluster-state same-scenario
	// runs are byte-identical.
	Seed uint64
	// Arrival switches the loop open: clients issue by a Poisson process
	// following the rate curve (per-client exponential interarrivals with
	// mean clients/rate(t)), decoupled from completions, and the
	// congestion model is fed the live in-flight count. nil keeps the
	// closed loop, bit-identical to RunLoad.
	Arrival *RateCurve
	// DurationNS is the open-loop horizon in virtual time (required with
	// Arrival): no queries issue at or after it.
	DurationNS float64
	// Events is the operational timeline (cache flushes, outage windows).
	Events []FleetEvent
}

// FleetStats extends LoadStats with fleet-scenario accounting.
type FleetStats struct {
	LoadStats
	// Served counts the queries this run issued (LoadStats.Queries is the
	// cluster's cumulative counter, which may span earlier runs).
	Served int64
	// EventsProcessed counts engine events: query issues, open-loop
	// completion pops, and timeline actions.
	EventsProcessed int64
	// DurationNS is the virtual time spanned by the run (latest query
	// completion).
	DurationNS float64
	// PeakInflight is the maximum concurrent occupancy the congestion
	// model saw (always Clients for closed loops).
	PeakInflight int64
	// OfferedQPS is the configured mean arrival rate (0 for closed loops,
	// where load is completion-driven).
	OfferedQPS float64
}

// action is one expanded timeline step; an outage window becomes a down
// action and an up action.
type action struct {
	at          float64
	kind        uint8
	leaf, count int
}

// Same-instant ordering: flushes first, then recoveries, then outages —
// so a window starting exactly when another ends leaves the leaves down.
const (
	actFlush = iota
	actUp
	actDown
)

// buildTimeline expands and deterministically orders the scenario events
// for a cluster of the given leaf count. It panics on events the ordering
// below cannot represent: a time that does not sort, an outage outside the
// cluster, or a window whose recovery would not come after its start.
func buildTimeline(events []FleetEvent, leaves int) []action {
	var acts []action
	for _, ev := range events {
		if math.IsNaN(ev.AtNS) || math.IsInf(ev.AtNS, 0) {
			panic("serving: scenario event time must be finite")
		}
		if ev.FlushCache {
			acts = append(acts, action{at: ev.AtNS, kind: actFlush})
		}
		if ev.OutageLeaves != 0 {
			if ev.OutageLeaves < 0 || ev.OutageLeaf < 0 || ev.OutageLeaves > leaves-ev.OutageLeaf {
				panic(fmt.Sprintf("serving: scenario outage of %d leaves from leaf %d lies outside the cluster's %d leaves",
					ev.OutageLeaves, ev.OutageLeaf, leaves))
			}
			if !(ev.OutageDurationNS > 0) {
				panic("serving: scenario outage requires a positive duration")
			}
			acts = append(acts, action{at: ev.AtNS, kind: actDown, leaf: ev.OutageLeaf, count: ev.OutageLeaves})
			acts = append(acts, action{at: ev.AtNS + ev.OutageDurationNS, kind: actUp, leaf: ev.OutageLeaf, count: ev.OutageLeaves})
		}
	}
	sort.Slice(acts, func(i, j int) bool {
		if acts[i].at != acts[j].at {
			return acts[i].at < acts[j].at
		}
		if acts[i].kind != acts[j].kind {
			return acts[i].kind < acts[j].kind
		}
		return acts[i].leaf < acts[j].leaf
	})
	return acts
}

// applyAction executes one timeline step against the cluster.
func (c *Cluster) applyAction(a action) {
	switch a.kind {
	case actFlush:
		c.FlushCache()
	case actDown, actUp:
		for i := 0; i < a.count; i++ {
			c.SetLeafDown(a.leaf+i, a.kind == actDown)
		}
	}
}

// compPush and compPop maintain a plain min-heap of completion times: the
// open-loop engine's view of which issued queries are still in flight.
func compPush(h *[]float64, v float64) {
	*h = append(*h, v)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func compPop(h *[]float64) {
	a := *h
	n := len(a) - 1
	a[0] = a[n]
	*h = a[:n]
	a = a[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && a[r] < a[l] {
			l = r
		}
		if a[l] >= a[i] {
			break
		}
		a[i], a[l] = a[l], a[i]
		i = l
	}
}

// RunScenario drives the cluster through one fleet scenario on the
// event-driven engine. Closed-loop scenarios (Arrival == nil) issue queries
// in exactly the order RunLoad always has; open-loop scenarios issue by the
// rate curve with congestion fed by the live in-flight count, so offered
// load beyond capacity visibly inflates the tail. The run is
// single-threaded in virtual time: results are a pure function of (cluster
// state, scenario), independent of GOMAXPROCS and scheduling (DESIGN.md
// §16).
func RunScenario(c *Cluster, sc Scenario) FleetStats {
	if sc.Clients <= 0 || sc.VocabSize <= 0 || sc.Skew <= 0 {
		panic("serving: scenario requires positive clients, vocab size, and skew")
	}
	if sc.Clients > math.MaxInt32 {
		panic(fmt.Sprintf("serving: scenario of %d clients exceeds the event queue's int32 client ids (at most %d)",
			sc.Clients, math.MaxInt32))
	}
	open := sc.Arrival != nil
	if open {
		if !(sc.DurationNS > 0) || !(sc.Arrival.BaseQPS > 0) {
			panic("serving: open-loop scenario requires a positive horizon and base rate")
		}
		if math.IsInf(sc.DurationNS, 1) && sc.QueriesPerClient <= 0 {
			panic("serving: open-loop scenario with an infinite horizon requires QueriesPerClient > 0")
		}
		sc.Arrival.validate()
	} else if sc.QueriesPerClient <= 0 {
		panic("serving: closed-loop scenario requires QueriesPerClient > 0")
	}

	acts := buildTimeline(sc.Events, c.cfg.Leaves)

	c.driveMu.Lock()
	defer c.driveMu.Unlock()

	e := newLoadEngine(sc.Clients, sc.VocabSize, sc.Skew, sc.Seed)
	if sc.QueriesPerClient > 0 {
		e.issued = make([]int32, sc.Clients)
	}
	hist := stats.NewHistogram(8)
	var partials, events, served, peak int64
	var lastNS float64
	// inflight is the occupancy each query is served against: the live
	// count of issued-but-uncompleted queries in the open loop, the other
	// clients' standing queries in the closed loop.
	inflight := 0
	var comp []float64 // open loop: completion times of the queries in flight

	if open {
		// Stagger first arrivals by the t=0 rate; each draw comes from the
		// owning client's stream, ahead of its popularity draws. An arrival
		// at or past the horizon is never issued, so it is never queued: the
		// array is sized for the expected in-horizon share of the population
		// (plus four standard deviations), and re-issues reuse its drained
		// prefix.
		mean := float64(sc.Clients) / sc.Arrival.At(0) * 1e9
		expect := float64(sc.Clients) * -math.Expm1(-sc.DurationNS/mean)
		arrivals := make([]event, 0, min(sc.Clients, int(expect+4*math.Sqrt(expect))+1))
		for cl := range e.rng {
			if t := e.rng[cl].Exponential(mean); t < sc.DurationNS {
				arrivals = append(arrivals, event{t, int32(cl)})
			}
		}
		sortArrivals(arrivals)
		e.setArrivals(arrivals)
	} else {
		e.queueAll()
		inflight = sc.Clients - 1
		peak = int64(sc.Clients)
	}

	ai := 0
	for {
		ev, inHeap, ok := e.peek()
		if !ok {
			break
		}
		t, cl := ev.t, ev.id
		for ai < len(acts) && acts[ai].at <= t {
			c.applyAction(acts[ai])
			ai++
			events++
		}
		if open {
			for len(comp) > 0 && comp[0] <= t {
				compPop(&comp)
				inflight--
				events++
			}
		}
		r := c.serve(e.drawTerms(cl), inflight)
		events++
		served++
		hist.Add(r.LatencyNS)
		if r.Partial {
			partials++
		}
		if t+r.LatencyNS > lastNS {
			lastNS = t + r.LatencyNS
		}
		next := t + r.LatencyNS
		if open {
			compPush(&comp, next)
			inflight++
			if int64(inflight) > peak {
				peak = int64(inflight)
			}
			next = t + e.rng[cl].Exponential(float64(sc.Clients)/sc.Arrival.At(t)*1e9)
		}
		again := !open || next < sc.DurationNS
		if e.issued != nil {
			e.issued[cl]++
			again = again && int(e.issued[cl]) < sc.QueriesPerClient
		}
		if again {
			e.reissue(inHeap, event{next, cl})
		} else {
			e.retire(inHeap)
		}
	}

	c.mu.Lock()
	queries, hits := c.Queries, c.CacheHits
	c.mu.Unlock()

	mean := hist.Mean()
	fs := FleetStats{
		LoadStats: LoadStats{
			Queries:        queries,
			CacheHits:      hits,
			PartialResults: partials,
			MeanLatencyNS:  mean,
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
	} else if mean > 0 {
		fs.QPS = float64(sc.Clients) / (mean * 1e-9)
	}
	return fs
}
