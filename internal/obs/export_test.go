package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"searchmem/internal/det"
)

// sampleTraces builds traces exercising the encoder's edge cases: multiple
// traces, nesting, empty attr lists, string escaping, and fractional
// virtual-time values.
func sampleTraces() []Trace {
	tr := NewTracer()
	b := tr.Begin("query")
	root := b.Span(0, "query", 0, 8_400_000.5,
		Bool("partial", false), Int("leaves_answered", 16))
	fe := b.Span(root, "frontend", 0, 150_000)
	b.Span(fe, `cache "probe"`, 10_000, 60_000, String("note", "hit\nratio ≤ 1"))
	b.Span(root, "merge", 8_000_000, 8_400_000.5)
	b.Finish()

	b2 := tr.Begin("fleetprof[r=0.1]")
	b2.Span(0, "window", 256, 512, Float("duty", 0.1))
	b2.Finish()
	return tr.Traces()
}

func TestChromeTraceRoundTrip(t *testing.T) {
	orig := sampleTraces()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, orig); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	first := buf.String()

	decoded, err := ReadChromeTrace(strings.NewReader(first))
	if err != nil {
		t.Fatalf("ReadChromeTrace: %v", err)
	}
	if !reflect.DeepEqual(decoded, orig) {
		t.Fatalf("round trip changed traces:\n got %+v\nwant %+v", decoded, orig)
	}

	// Re-encoding the decoded traces must reproduce the original bytes.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, decoded); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if buf2.String() != first {
		t.Fatalf("re-encode differs from original:\n got %s\nwant %s", buf2.String(), first)
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, sampleTraces()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, sampleTraces()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodes of identical traces differ")
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleTraces()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"displayTimeUnit":"ns"`,
		`"name":"process_name","ph":"M","pid":1`,
		`"name":"fleetprof[r=0.1]"`,
		`"ph":"X"`,
		`"obs_parent":"1"`,
		`"leaves_answered":"16"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s\nin: %s", want, out)
		}
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, sampleTraces()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`trace 1 "query" (4 spans)`,
		"  query [0.000–8.400 ms] leaves_answered=16 partial=false",
		"    frontend [0.000–0.150 ms]",
		`trace 2 "fleetprof[r=0.1]" (1 spans)`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text export missing %q\nin:\n%s", want, out)
		}
	}
	// Nesting: the cache probe prints deeper than its parent frontend.
	feIdx := strings.Index(out, "  frontend")
	probeIdx := strings.Index(out, `    cache "probe"`)
	if feIdx < 0 || probeIdx < feIdx {
		t.Fatalf("span nesting not reflected in text output:\n%s", out)
	}
}

// chromeEvent mirrors one trace event for decoding.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  uint64            `json:"pid"`
	Tid  uint64            `json:"tid"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args"`
}

// chromeFile mirrors the top-level export object.
type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// ReadChromeTrace decodes an export written by WriteChromeTrace back into
// traces. Decoding then re-encoding reproduces the original bytes, and the
// decoded traces compare equal to the originals (the round-trip property
// pinned by TestChromeTraceRoundTrip).
func ReadChromeTrace(r io.Reader) ([]Trace, error) {
	var f chromeFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("obs: decoding chrome trace: %w", err)
	}
	byID := make(map[uint64]*Trace)
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" {
				continue
			}
			tr := traceFor(byID, ev.Pid)
			tr.Name = ev.Args["name"]
		case "X":
			tr := traceFor(byID, ev.Pid)
			parent, err := strconv.ParseUint(ev.Args[parentKey], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("obs: span %q: bad parent %q", ev.Name, ev.Args[parentKey])
			}
			sp := Span{
				ID: ev.Tid, Parent: parent, Name: ev.Name,
				StartNS: ev.Ts * 1e3, EndNS: (ev.Ts + ev.Dur) * 1e3,
			}
			for _, k := range det.SortedKeys(ev.Args) {
				if k == parentKey {
					continue
				}
				sp.Attrs = append(sp.Attrs, Attr{Key: k, Value: ev.Args[k]})
			}
			tr.Spans = append(tr.Spans, sp)
		}
	}
	out := make([]Trace, 0, len(byID))
	for _, id := range det.SortedKeys(byID) {
		tr := *byID[id]
		sort.Slice(tr.Spans, func(i, j int) bool { return tr.Spans[i].ID < tr.Spans[j].ID })
		out = append(out, tr)
	}
	return out, nil
}

// traceFor returns (creating if needed) the trace with the given ID.
func traceFor(byID map[uint64]*Trace, id uint64) *Trace {
	if tr, ok := byID[id]; ok {
		return tr
	}
	tr := &Trace{ID: id}
	byID[id] = tr
	return tr
}
