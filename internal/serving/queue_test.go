package serving

import (
	"math"
	"slices"
	"testing"

	"searchmem/internal/stats"
)

// byTimeThenID is the reference order, written apart from the queue's own
// comparisons: earlier time first, then lower client id.
func byTimeThenID(a, b event) int {
	switch {
	case a.t < b.t:
		return -1
	case a.t > b.t:
		return 1
	case a.id < b.id:
		return -1
	case a.id > b.id:
		return 1
	}
	return 0
}

// TestEventQueueMatchesSort is the queue's oracle: every event the engine
// peeks must be the first of the pending keys ordered by slices.SortFunc
// under (t, id), whether it comes from the sorted arrivals or from the
// re-issue heap in their drained prefix. Times are drawn from a handful of
// values so ties — the case the id tie-break exists for — are the norm, in
// the arrivals, in the heap and between the two. A re-issue key may sort
// anywhere, before the arrivals' front too, and most events issue again, so
// the heap often fills the whole drained prefix before the next push.
func TestEventQueueMatchesSort(t *testing.T) {
	rng := stats.NewRNG(5)
	for _, n := range []int{0, 1, 2, 4, 5, 6, 21, 22, 300, 2000} {
		draw := func() float64 { return float64(rng.Intn(n/2 + 1)) }
		arrivals := make([]event, n)
		for i := range arrivals {
			arrivals[i] = event{t: draw(), id: int32(i)}
		}
		rng.Shuffle(n, func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
		ref := slices.Clone(arrivals)
		sortArrivals(arrivals)
		e := &loadEngine{}
		e.setArrivals(arrivals)

		reissues := 3 * n
		for step := 0; len(ref) > 0; step++ {
			slices.SortFunc(ref, byTimeThenID)
			ev, inHeap, ok := e.peek()
			if !ok || ev != ref[0] {
				t.Fatalf("n=%d step %d: queue gives %+v (ok %v) with %d arrivals and %d re-issues pending, sorted reference gives %+v of %d",
					n, step, ev, ok, len(e.arrivals)-e.fi, len(e.heap), ref[0], len(ref))
			}
			if reissues > 0 && rng.Intn(4) > 0 {
				next := event{t: draw(), id: ev.id}
				e.reissue(inHeap, next)
				ref[0] = next
				reissues--
			} else {
				e.retire(inHeap)
				ref = ref[1:]
			}
			if len(e.heap) > e.fi {
				t.Fatalf("n=%d step %d: heap of %d overlaps the pending arrivals at %d", n, step, len(e.heap), e.fi)
			}
		}
		if _, _, ok := e.peek(); ok {
			t.Fatalf("n=%d: events left in the queue after the reference drained", n)
		}
	}
}

// arrivalShapes is the number of time distributions fuzzArrivals draws
// from; shape/arrivalShapes odd keeps ids ascending instead of shuffled.
const arrivalShapes = 6

// fuzzArrivals draws n arrivals with distinct ids in [0, n):
//
//	0: spread uniformly over a 30 s horizon;
//	1: eight distinct times, 0 among them (duplicates);
//	2: all at t = 0;
//	3: all at one time;
//	4: packed into 10⁻⁶ of the horizon, with one straggler at its end;
//	5: any finite non-negative float64, subnormals included.
func fuzzArrivals(n int, shape uint8, seed uint64) []event {
	const horizon = 30e9
	rng := stats.NewRNG(seed)
	a := make([]event, n)
	for i := range a {
		var t float64
		switch shape % arrivalShapes {
		case 0:
			t = rng.Float64() * horizon
		case 1:
			t = float64(rng.Intn(8)) * 1e9
		case 3:
			t = 12345.678
		case 4:
			t = rng.Float64() * 1e-6 * horizon
			if i == n/2 {
				t = horizon
			}
		case 5:
			if t = math.Float64frombits(rng.Uint64() &^ (1 << 63)); math.IsNaN(t) || math.IsInf(t, 0) {
				t = 0
			}
		}
		a[i] = event{t: t, id: int32(i)}
	}
	if shape/arrivalShapes%2 == 0 {
		rng.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
	}
	return a
}

// FuzzArrivalsMatchSort checks sortArrivals against slices.SortFunc by
// (t, id) on every shape of fuzzArrivals, at the sizes around one and two
// 256-way partitions and at a day-sized 70 000.
func FuzzArrivalsMatchSort(f *testing.F) {
	for _, n := range []uint32{0, 1, 2, 255, 256, 257, 70_000} {
		for shape := uint8(0); shape < 2*arrivalShapes; shape++ {
			f.Add(n, shape, uint64(n)*31+uint64(shape))
		}
	}
	f.Fuzz(func(t *testing.T, n uint32, shape uint8, seed uint64) {
		checkSortArrivals(t, fuzzArrivals(int(n%70_001), shape, seed))
	})
}

// checkSortArrivals sorts a with sortArrivals and fails unless the result
// equals slices.SortFunc's.
func checkSortArrivals(t *testing.T, a []event) {
	t.Helper()
	want := slices.Clone(a)
	slices.SortFunc(want, byTimeThenID)
	sortArrivals(a)
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("%d arrivals: position %d holds %+v, sorted reference %+v", len(a), i, a[i], want[i])
		}
	}
}

// TestSortArrivalsSkewed sorts inputs that crowd one bucket: 200 000
// arrivals at one time, and 200 000 exponential arrivals whose mean is 10⁻⁶
// of a 30 s horizon, alone and with one straggler at the horizon (then
// every other arrival lands in the first bucket). Each is checked against
// slices.SortFunc. It is also the guard on the finish's cost: an insertion
// finish over a crowded bucket is O(n²) and takes minutes here.
func TestSortArrivalsSkewed(t *testing.T) {
	const n, horizon = 200_000, 30e9
	rng := stats.NewRNG(11)
	same := make([]event, n)
	exp := make([]event, n)
	for i := range exp {
		same[i] = event{t: 7e9, id: int32(i)}
		exp[i] = event{t: rng.Exponential(1e-6 * horizon), id: int32(i)}
	}
	rng.Shuffle(n, func(i, j int) { same[i], same[j] = same[j], same[i] })
	straggler := slices.Clone(exp)
	straggler[n/3].t = horizon
	for _, a := range [][]event{same, exp, straggler} {
		checkSortArrivals(t, a)
	}
}
