package obs

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"searchmem/internal/stats"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("queries", L("cluster", "a"), L("stage", "merge"))
	c2 := r.Counter("queries", L("stage", "merge"), L("cluster", "a")) // label order irrelevant
	if c1 != c2 {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	if c3 := r.Counter("queries", L("cluster", "b")); c3 == c1 {
		t.Fatal("different labels shared a counter")
	}
	if g1, g2 := r.Gauge("depth"), r.Gauge("depth"); g1 != g2 {
		t.Fatal("same gauge series returned distinct gauges")
	}
	if h1, h2 := r.Histogram("lat"), r.Histogram("lat"); h1 != h2 {
		t.Fatal("same histogram series returned distinct histograms")
	}
}

func TestInstrumentBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	c.Add(1)
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative Add did not panic")
			}
		}()
		c.Add(-1)
	}()

	g := r.Gauge("temp")
	g.Set(3.25)
	if g.Value() != 3.25 {
		t.Fatalf("gauge = %g, want 3.25", g.Value())
	}

	h := r.Histogram("lat")
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	h.ObserveBatch(vs)
	if h.Count() != 100 {
		t.Fatalf("histogram count = %d, want 100", h.Count())
	}
	if got := h.Mean(); got != 50.5 {
		t.Fatalf("histogram mean = %g, want 50.5", got)
	}
	if p50 := h.Quantile(0.5); p50 < 40 || p50 > 62 {
		t.Fatalf("p50 = %g, want ≈ 50 within bucket resolution", p50)
	}
}

// TestObserveBatchMatchesObserve holds ObserveBatch to a stats.Histogram of
// the same resolution fed each value in turn with Add: same count,
// bit-identical mean (the sum adds in order) and the same quantiles, batch
// after batch.
func TestObserveBatchMatchesObserve(t *testing.T) {
	batch := NewRegistry().Histogram("batch")
	one := stats.NewHistogram(8)
	vs := []float64{0.1, 3e5, 1.7e6, 2.0000001e6, 0.3, 8e9, 1, 12345.678}
	for round := 0; round < 3; round++ {
		for _, v := range vs {
			one.Add(v)
		}
		batch.ObserveBatch(vs)
		batch.ObserveBatch(nil)
		if one.Count() != batch.Count() || math.Float64bits(one.Mean()) != math.Float64bits(batch.Mean()) {
			t.Fatalf("round %d: batch n=%d mean=%v, one at a time n=%d mean=%v",
				round, batch.Count(), batch.Mean(), one.Count(), one.Mean())
		}
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if one.Quantile(q) != batch.Quantile(q) {
				t.Fatalf("round %d: q%.2f batch %v, one at a time %v", round, q, batch.Quantile(q), one.Quantile(q))
			}
		}
	}
}

func TestSnapshotSortedAndDetached(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(1)
	r.Counter("alpha", L("k", "v")).Add(2)
	r.Gauge("g").Set(1)
	r.Histogram("h").ObserveBatch([]float64{10})

	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "alpha" || s.Counters[1].Name != "zeta" {
		t.Fatalf("counters not sorted by series key: %+v", s.Counters)
	}

	// Mutating the snapshot must not reach the registry.
	s.Counters[0].Labels[0] = Label{Key: "clobbered", Value: "x"}
	again := r.Snapshot()
	if !reflect.DeepEqual(again.Counters[0].Labels, []Label{{Key: "k", Value: "v"}}) {
		t.Fatal("snapshot aliases registry label state")
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("queries", L("cluster", "healthy")).Add(7)
		r.Gauge("ipc").Set(0.475)
		h := r.Histogram("serving_stage_latency_ns", L("stage", "merge"))
		for i := 0; i < 50; i++ {
			h.ObserveBatch([]float64{float64(1000 + i*37)})
		}
		return r
	}
	var a, b bytes.Buffer
	if err := build().Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same registry content produced different JSON:\n%s\nvs\n%s", a.String(), b.String())
	}
	for _, want := range []string{`"name": "queries"`, `"cluster"`, `"p95"`} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("JSON missing %s:\n%s", want, a.String())
		}
	}
}
