package serving

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"searchmem/internal/stats"
)

// loadEngine is the event-driven core of RunLoad and RunScenario. Pending
// issue events are {time, client id, slot} entries ordered by (time, id) in
// two parts of one array:
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
// no statistic can depend on how the queue is laid out.
//
// Per-client state is struct-of-arrays beside the queue, indexed by the
// event's slot rather than its id: 16 B of RNG, plus the closed loop's 4 B
// issue count, which runClosed keeps. An open loop gives slots in
// first-arrival order to the clients that arrive inside the horizon and to
// no one else, so the first arrivals — most of a day's queries — read their
// streams front to back, and an idle client costs nothing. A closed loop
// queues every client with slot = id (36 B per client). The whole
// per-event path — peek, Zipf draw, term synthesis, Cluster.serve,
// histogram add, push or replace-min — is allocation-free, pinned by the
// ZeroAlloc oracles in alloc_test.go.
type loadEngine struct {
	arrivals []event     // first issues sorted by (t, id); arrivals[fi:] pending
	fi       int         // index of the next pending first arrival
	heap     []event     // 4-ary min-heap of re-issues by (t, id), backed by arrivals[:0]
	rng      []stats.RNG // per-slot random stream (query popularity, think time)
	shape    *stats.ZipfShape
	vocab    uint32
	terms    [2]uint32 // scratch for the current query's term tuple
}

// event is one pending issue: client id is due at virtual time t, and its
// state lives at slot. The slot rides in what would otherwise be padding
// (the entry stays 16 bytes) and takes no part in the order.
type event struct {
	t    float64
	id   int32
	slot int32
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

// newLoadEngine returns an engine with an empty queue and no client state;
// queueAll or queueArrivals lays out both.
func newLoadEngine(vocabSize int, skew float64) *loadEngine {
	return &loadEngine{
		shape: stats.NewZipfShape(uint64(vocabSize), skew),
		vocab: uint32(vocabSize),
	}
}

// seedClient sets r to client cl's stream, NewRNG(seed+cl*977).Split(),
// reproduced through a stack RNG so that it allocates nothing.
func seedClient(r *stats.RNG, seed uint64, cl int) {
	var seeder stats.RNG
	seeder.Seed(seed + uint64(cl)*977)
	r.Seed(seeder.Uint64())
}

// setArrivals makes sorted first arrivals the queue, with an empty re-issue
// heap in their drained prefix.
func (e *loadEngine) setArrivals(sorted []event) {
	e.arrivals, e.fi, e.heap = sorted, 0, sorted[:0]
}

// queueAll queues every client at time zero, the start of a closed loop,
// with slot = id. Equal times and ids ascending: already sorted.
func (e *loadEngine) queueAll(clients int, seed uint64) {
	a := make([]event, clients)
	e.rng = make([]stats.RNG, clients)
	for cl := range a {
		a[cl] = event{id: int32(cl), slot: int32(cl)}
		seedClient(&e.rng[cl], seed, cl)
	}
	e.setArrivals(a)
}

// queueArrivals queues the open loop's first arrivals: each client's first
// draw from its own stream, an exponential of the given mean. An arrival at
// or past the horizon is never issued, so it is never queued, and its
// stream is dropped with it. Once the arrivals are sorted, each one's slot
// is its position, and its stream is derived again at that slot and
// advanced past the arrival draw.
//
// The scan over the clients and the re-seeding after the sort each run in
// two halves, the upper half on a second goroutine. The scan writes both
// halves into one array, each into a region sized for its half's expected
// in-horizon share plus four standard deviations, and then moves the upper
// half down beside the lower one. sortArrivals orders by (t, id), a total
// order, so where the scan put an arrival cannot move the queue.
func (e *loadEngine) queueArrivals(clients int, seed uint64, mean, horizon float64) {
	f := newFirstDraw(mean, horizon)
	p := -math.Expm1(-horizon / mean) // a client's chance of arriving inside the horizon
	reserve := func(n int) int {
		expect := float64(n) * p
		return min(n, int(expect+4*math.Sqrt(expect))+1)
	}
	half := clients / 2
	a := scanArrivals(f, seed, clients, reserve(half), reserve(clients-half))
	sortArrivals(a)
	e.rng = make([]stats.RNG, len(a))
	inHalves(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i].slot = int32(i)
			seedClient(&e.rng[i], seed, int(a[i].id))
			e.rng[i].Uint64() // the arrival's draw (Exponential takes one)
		}
	})
	e.setArrivals(a)
}

// scanArrivals returns the in-horizon first arrivals of clients
// [0, clients), unsorted, in one array of loCap+hiCap entries: the lower
// half of the clients fills [0, loCap) on the calling goroutine while the
// upper half fills [loCap, loCap+hiCap) on a second one, and one copy then
// closes the gap. A half that finds more arrivals than its region holds
// stops there and is finished afterwards by appending, which may regrow
// the array.
func scanArrivals(f firstDraw, seed uint64, clients, loCap, hiCap int) []event {
	half := clients / 2
	a := make([]event, loCap+hiCap)
	var hi []event
	var hiNext int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hi, hiNext = f.scan(a[loCap:loCap], seed, half, clients)
	}()
	lo, loNext := f.scan(a[:0:loCap], seed, 0, half)
	wg.Wait()
	a = append(a[:len(lo)], hi...) // a copy down into room the array already has
	for _, rest := range [2][2]int{{loNext, half}, {hiNext, clients}} {
		for cl := rest[0]; cl < rest[1]; {
			a = slices.Grow(a, 1)
			a, cl = f.scan(a, seed, cl, rest[1])
		}
	}
	return a
}

// inHalves runs body(n/2, n) on a second goroutine and body(0, n/2) on the
// calling one, and returns when both have.
func inHalves(n int, body func(lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body(n/2, n)
	}()
	body(0, n/2)
	wg.Wait()
}

// firstDraw turns one 64-bit draw of a client's stream into its first
// arrival, Exponential(mean), and tells whether it lies inside the horizon.
//
// Exponential reads the draw's top 53 bits k as u = k/2⁵³ and returns
// −mean·ln(1−u), which reaches the horizon once 1−u falls to
// exp(−horizon/mean). past is the least k whose 1−u lies below that level
// narrowed by a relative 10⁻⁹: such a draw lies past the horizon by far
// more than the rounding of Exp, Log and the division can move it (the
// level is at least 2⁻⁵³ for past to be reachable at all, so
// horizon/mean ≤ 37 and the band is over 10⁴ times the rounding), so it skips
// the logarithm and is dropped. A draw below past — inside the horizon or
// in the band — takes Exponential's exact arithmetic and the exact
// t < horizon test. Either way the stream gives up the same one Uint64.
type firstDraw struct {
	mean, horizon float64
	past          uint64
}

func newFirstDraw(mean, horizon float64) firstDraw {
	// 2⁵³−k < level ⟺ 2⁵³−k ≤ ⌈level⌉−1 ⟺ k ≥ 2⁵³+1−⌈level⌉. A level
	// below 1 (an infinite or long horizon) gives past = 2⁵³+1: no skip.
	level := math.Exp(-horizon/mean) * (1 - 1e-9) * (1 << 53)
	return firstDraw{mean: mean, horizon: horizon, past: 1<<53 + 1 - uint64(math.Ceil(level))}
}

// at is the arrival of the raw draw x and whether it lies inside the
// horizon; t is meaningful only when it does.
func (f firstDraw) at(x uint64) (t float64, in bool) {
	k := x >> 11
	if k >= f.past {
		return 0, false
	}
	t = -f.mean * math.Log(1-float64(k)/(1<<53)) // stats.RNG.Exponential, op for op
	return t, t < f.horizon
}

// scan appends to a the in-horizon first arrivals of clients [from, to)
// while a has room, and returns a with the first client it did not scan.
func (f firstDraw) scan(a []event, seed uint64, from, to int) ([]event, int) {
	var r stats.RNG
	for cl := from; cl < to; cl++ {
		seedClient(&r, seed, cl)
		if t, in := f.at(r.Uint64()); in {
			if len(a) == cap(a) {
				return a, cl
			}
			a = append(a, event{t: t, id: int32(cl)})
		}
	}
	return a, to
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

// drawTerms synthesizes the next query of the client at slot: a
// Zipf-popular query id expanded into a two-term tuple.
func (e *loadEngine) drawTerms(slot int32) []uint32 {
	qid := e.shape.Next(&e.rng[slot])
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
// seed for any client count (DESIGN.md §14). Each client issues
// queriesPerClient queries.
func RunLoad(c *Cluster, clients, queriesPerClient, vocabSize int, skew float64, seed uint64) LoadStats {
	if queriesPerClient <= 0 {
		panic("serving: closed loop requires queriesPerClient > 0")
	}
	checkLoad(clients, vocabSize, skew)

	c.driveMu.Lock()
	defer c.driveMu.Unlock()

	e := newLoadEngine(vocabSize, skew)
	e.queueAll(clients, seed)
	st := c.loadStats(c.runClosed(e, queriesPerClient))
	if st.MeanLatencyNS > 0 {
		st.QPS = float64(clients) / (st.MeanLatencyNS * 1e-9)
	}
	return st
}

// checkLoad panics unless a load's population and query popularity are
// usable: positive clients, vocabulary and skew (NaN passes a Skew <= 0
// test, and its draws never end), and no more clients than the event
// queue's int32 ids hold — checked before any per-client array is sized.
func checkLoad(clients, vocabSize int, skew float64) {
	if clients <= 0 || vocabSize <= 0 || !(skew > 0) {
		panic("serving: load requires positive clients, vocab size, and skew")
	}
	if clients > math.MaxInt32 {
		panic(fmt.Sprintf("serving: load of %d clients exceeds the event queue's int32 client ids (at most %d)",
			clients, math.MaxInt32))
	}
}

// loadStats publishes a run's pending metrics and summarizes its latency
// histogram and partial-result count; the caller holds driveMu.
func (c *Cluster) loadStats(hist *stats.Histogram, partials int64) LoadStats {
	c.metrics.publish()
	return LoadStats{
		Queries:        c.metrics.queries.total,
		CacheHits:      c.metrics.cacheHits.total,
		PartialResults: partials,
		MeanLatencyNS:  hist.Mean(),
		P50NS:          hist.Quantile(0.50),
		P95NS:          hist.Quantile(0.95),
		P99NS:          hist.Quantile(0.99),
	}
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

// Scenario describes one open-loop fleet run for RunScenario.
type Scenario struct {
	// Clients is the modeled user population.
	Clients int
	// VocabSize and Skew shape query popularity (Zipf), as in RunLoad.
	VocabSize int
	Skew      float64
	// Seed makes the run reproducible; same-cluster-state same-scenario
	// runs are byte-identical.
	Seed uint64
	// Arrival is the rate curve clients issue by (required): a Poisson
	// process of per-client exponential interarrivals with mean
	// clients/rate(t), decoupled from completions, while the congestion
	// model is fed the live in-flight count.
	Arrival *RateCurve
	// DurationNS is the horizon in virtual time (required, finite): no
	// queries issue at or after it.
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
	// model saw.
	PeakInflight int64
	// OfferedQPS is the configured mean arrival rate.
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

// applyAction executes one timeline step against the cluster; the caller
// holds driveMu. buildTimeline has put an outage's leaves inside the
// cluster; those whose executors cannot be marked down are skipped.
func (c *Cluster) applyAction(a action) {
	switch a.kind {
	case actFlush:
		if c.cache != nil {
			c.cache.flush()
		}
	case actDown, actUp:
		for _, lf := range c.leaves[a.leaf : a.leaf+a.count] {
			if o, ok := lf.exec.(OutageExecutor); ok {
				o.SetDown(a.kind == actDown)
			}
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

// RunScenario drives the cluster through one open-loop fleet scenario on
// the event-driven engine: clients issue by the rate curve, with congestion
// fed by the live in-flight count, so offered load beyond capacity visibly
// inflates the tail, and the timeline's flushes and outage windows land
// between the queries they precede. Virtual time is serial: results are a
// pure function of (cluster state, scenario), independent of GOMAXPROCS and
// scheduling (DESIGN.md §16). The issue schedule is drawn on a second
// goroutine while the calling one serves it (see runOpen); that goroutine
// has ended by the time RunScenario returns or panics.
func RunScenario(c *Cluster, sc Scenario) FleetStats {
	checkLoad(sc.Clients, sc.VocabSize, sc.Skew)
	if sc.Arrival == nil {
		panic("serving: scenario requires an arrival rate curve")
	}
	if !(sc.DurationNS > 0) || math.IsInf(sc.DurationNS, 1) || !(sc.Arrival.BaseQPS > 0) {
		panic("serving: scenario requires a finite positive horizon and a positive base rate")
	}
	sc.Arrival.validate()
	acts := buildTimeline(sc.Events, c.cfg.Leaves)

	c.driveMu.Lock()
	defer c.driveMu.Unlock()

	e := newLoadEngine(sc.VocabSize, sc.Skew)
	// Stagger first arrivals by the t=0 rate; each draw comes from the
	// owning client's stream, ahead of its popularity draws.
	e.queueArrivals(sc.Clients, sc.Seed, float64(sc.Clients)/sc.Arrival.At(0)*1e9, sc.DurationNS)
	tot := c.runOpen(e, &sc, acts)

	fs := FleetStats{
		LoadStats:       c.loadStats(tot.hist, tot.partials),
		Served:          tot.served,
		EventsProcessed: tot.events,
		DurationNS:      tot.lastNS,
		PeakInflight:    tot.peak,
		OfferedQPS:      sc.Arrival.BaseQPS,
	}
	if tot.lastNS > 0 {
		fs.QPS = float64(tot.served) / (tot.lastNS * 1e-9)
	}
	return fs
}

// runClosed is the closed loop: every client always has one query in
// flight, so each query is served against the other clients-1 and its
// client issues again when it completes, until it has issued
// queriesPerClient. The next issue time needs the latency, so the loop runs
// inline on the calling goroutine. It returns the latency histogram and the
// partial-result count.
func (c *Cluster) runClosed(e *loadEngine, queriesPerClient int) (*stats.Histogram, int64) {
	hist := stats.NewHistogram(8)
	var partials int64
	issued := make([]int32, len(e.rng))
	inflight := len(e.rng) - 1
	for {
		ev, inHeap, ok := e.peek()
		if !ok {
			return hist, partials
		}
		lat, partial := c.serve(e.drawTerms(ev.slot), inflight)
		hist.Add(lat)
		if partial {
			partials++
		}
		if issued[ev.slot]++; int(issued[ev.slot]) < queriesPerClient {
			e.reissue(inHeap, event{ev.t + lat, ev.id, ev.slot})
		} else {
			e.retire(inHeap)
		}
	}
}

// runTotals is what the open loop tallies for FleetStats.
type runTotals struct {
	hist                           *stats.Histogram
	partials, events, served, peak int64
	lastNS                         float64 // latest query completion
}

// issue is one query of an open loop's schedule: when it issues and its
// term tuple.
type issue struct {
	t     float64
	terms [2]uint32
}

// Geometry of runOpen's handoff: the generator fills batches of
// issueBatch issues, and issueBuffers of them circulate (one filling, one
// being served, one ready), 48 KiB in all. A batch is a few hundred
// microseconds of either stage, so a handoff costs nothing measurable; on
// a 2-vCPU host, 4 096-issue batches ran no faster and added about 0.4 MiB
// to the benchmark's fleet_day peak RSS.
const (
	issueBatch   = 1024
	issueBuffers = 3
)

// fillIssues draws the open loop's issue schedule into buf until buf is
// full or the queue is empty, and returns how many issues it wrote. Per
// issue it pops the earliest pending event, draws the query's terms from the
// client's stream and then, from the same stream, the client's next issue
// time, which reads only this issue's time and the rate curve, never a
// latency; the client issues again if that lies inside the horizon.
func (e *loadEngine) fillIssues(buf []issue, sc *Scenario) int {
	for n := range buf {
		ev, inHeap, ok := e.peek()
		if !ok {
			return n
		}
		t, slot := ev.t, ev.slot
		buf[n] = issue{t: t, terms: [2]uint32(e.drawTerms(slot))}
		next := t + e.rng[slot].Exponential(float64(sc.Clients)/sc.Arrival.At(t)*1e9)
		if next < sc.DurationNS {
			e.reissue(inHeap, event{next, ev.id, slot})
		} else {
			e.retire(inHeap)
		}
	}
	return len(buf)
}

// runOpen is the open loop, in two stages joined by a ring of issue
// batches. A second goroutine, the generator, owns the engine e: it fills
// batches with fillIssues and sends each on full. The calling goroutine,
// which holds driveMu, serves them in order: the timeline actions due, the
// completions due (the in-flight count is the live occupancy), serve, the
// tallies; it hands each batch back on free. The generator never touches
// the cluster and the server never touches the engine.
//
// This is the inline loop's exact order: an open loop's next issue time
// does not read a latency, so the issue sequence, every draw from every
// stream, the serve order and with it every executor's draws and trace id
// are the same whether the two stages overlap or not.
//
// Both channels hold all issueBuffers batches, so a send never blocks.
// The generator ends after the short batch that empties the queue, closing
// full; if the server panics (an Executor may), its deferred close of done
// stops the generator at its next wait for a free batch, and the defer
// waits for it to exit, so the generator never outlives the call.
func (c *Cluster) runOpen(e *loadEngine, sc *Scenario, acts []action) runTotals {
	full := make(chan []issue, issueBuffers)
	free := make(chan []issue, issueBuffers)
	back := make([]issue, issueBuffers*issueBatch)
	for i := 0; i < issueBuffers; i++ {
		free <- back[i*issueBatch : (i+1)*issueBatch : (i+1)*issueBatch]
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		defer close(full)
		for {
			var buf []issue
			select {
			case buf = <-free:
			case <-done:
				return
			}
			n := e.fillIssues(buf, sc)
			if n > 0 {
				full <- buf[:n]
			}
			if n < len(buf) {
				return
			}
		}
	}()
	defer func() {
		close(done)
		<-exited
	}()

	hist := stats.NewHistogram(8)
	var partials, events, served, peak int64
	var lastNS float64
	var comp []float64 // completion times of the queries in flight
	ai := 0
	for buf := range full {
		for i := range buf {
			t := buf[i].t
			for ai < len(acts) && acts[ai].at <= t {
				c.applyAction(acts[ai])
				ai++
				events++
			}
			for len(comp) > 0 && comp[0] <= t {
				compPop(&comp)
				events++
			}
			lat, partial := c.serve(buf[i].terms[:], len(comp))
			events++
			served++
			hist.Add(lat)
			if partial {
				partials++
			}
			next := t + lat
			if next > lastNS {
				lastNS = next
			}
			compPush(&comp, next)
			peak = max(peak, int64(len(comp)))
		}
		free <- buf[:cap(buf)]
	}
	return runTotals{hist: hist, partials: partials, events: events, served: served, peak: peak, lastNS: lastNS}
}
