package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the harness around the
// layer's public function (in-program tracing is a later change).
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the enclosing span, -1 for a phase root
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the traced child exits. A nil tracer
// records nothing, so set-up code is written once and runs untraced in the
// children that produce the end-to-end numbers.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	// Sized so the hot loops of a full traced pass never grow the slice
	// (growth would show up in cache.allocs_per_access).
	return &tracer{workload: workload, epoch: now(), spans: make([]span, 0, 1<<17)}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Workload: t.workload})
	t.open = append(t.open, id)
	t.spans[id].StartNS = now().Sub(t.epoch).Nanoseconds()
	return id
}

// end closes the span begin returned; spans nest strictly.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = now().Sub(t.epoch).Nanoseconds()
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: span " + t.spans[id].Name + " closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
}

// seconds is a closed span's duration.
func (t *tracer) seconds(id int) float64 {
	return float64(t.spans[id].EndNS-t.spans[id].StartNS) / 1e9
}

// spanCostNS times begin+end on a scratch tracer: the per-span price that
// bench.trace_overhead_frac multiplies by the number of spans recorded.
func spanCostNS() float64 {
	const n = 1 << 16
	t := newTracer("calibration")
	t0 := now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x"))
	}
	return since(t0) * 1e9 / n
}

// budgetRow is one line of the per-phase budget: a span name's call count
// and self time (duration minus the time its child spans cover).
type budgetRow struct {
	Phase string  `json:"phase"`
	Span  string  `json:"span"`
	Calls int     `json:"calls"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share_of_phase"`
}

// budget attributes every traced nanosecond to exactly one row: each span's
// self time goes to (its phase root, its name), and a root's own self time —
// harness glue between layer calls — is that phase's "residual" row. The
// rows of a phase therefore sum to the phase's wall.
func (t *tracer) budget() []budgetRow {
	self := make([]int64, len(t.spans))
	root := make([]int, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent < 0 {
			root[i] = i
			continue
		}
		self[s.Parent] -= s.EndNS - s.StartNS
		root[i] = root[s.Parent] // parents precede children
	}
	type key struct{ phase, span string }
	idx := map[key]int{}
	wall := map[string]float64{}
	var out []budgetRow
	for i, s := range t.spans {
		phase := strings.TrimPrefix(t.spans[root[i]].Name, "bench.")
		name := s.Name
		if s.Parent < 0 {
			name = "residual"
			wall[phase] += float64(s.EndNS-s.StartNS) / 1e9
		}
		k := key{phase, name}
		j, ok := idx[k]
		if !ok {
			j = len(out)
			idx[k] = j
			out = append(out, budgetRow{Phase: phase, Span: name})
		}
		out[j].Calls++
		out[j].SelfS += float64(self[i]) / 1e9
	}
	for i := range out {
		out[i].Share = out[i].SelfS / wall[out[i].Phase]
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Span < out[j].Span
	})
	return out
}

// write dumps the raw spans for offline inspection.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+t.workload+".json"), data, 0o644)
}
