package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Trace exports. Two forms:
//
//   - Chrome trace-event JSON (chrome://tracing, Perfetto): complete "X"
//     events with microsecond timestamps, one process per trace, one row
//     per span. The encoder is hand-rolled so the byte stream is fully
//     determined by the trace contents — field order fixed, floats in
//     shortest round-trip form — which is what lets the determinism tests
//     diff whole export files.
//   - a compact indented text tree for terminals and examples.
//
// The span's parent link and annotations travel in the event's "args"
// object; the reserved key "obs_parent" carries the parent span ID.

// parentKey is the reserved args key carrying the parent span ID.
const parentKey = "obs_parent"

// WriteChromeTrace writes traces as a Chrome trace-event JSON object.
// Output bytes are a pure function of the trace list.
func WriteChromeTrace(w io.Writer, traces []Trace) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
		bw.WriteString(s)
	}
	for _, tr := range traces {
		emit(fmt.Sprintf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%s}}",
			tr.ID, jsonString(tr.Name)))
		for _, sp := range tr.Spans {
			emit(fmt.Sprintf("{\"name\":%s,\"cat\":\"virtual\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{%s}}",
				jsonString(sp.Name), tr.ID, sp.ID,
				jsonFloat(sp.StartNS/1e3), jsonFloat(sp.DurationNS()/1e3), jsonArgs(sp)))
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// jsonString encodes s as a JSON string literal.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // strings always marshal
	}
	return string(b)
}

// jsonFloat formats v in shortest round-trip form (valid JSON for finite
// values; virtual timestamps are always finite).
func jsonFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// jsonArgs encodes the parent link and attributes (already key-sorted).
func jsonArgs(sp Span) string {
	out := fmt.Sprintf("%s:\"%d\"", jsonString(parentKey), sp.Parent)
	for _, a := range sp.Attrs {
		out += fmt.Sprintf(",%s:%s", jsonString(a.Key), jsonString(a.Value))
	}
	return out
}

// WriteText writes traces as indented span trees, one block per trace.
// Children print in creation order under their parent.
func WriteText(w io.Writer, traces []Trace) error {
	bw := bufio.NewWriter(w)
	for _, tr := range traces {
		fmt.Fprintf(bw, "trace %d %q (%d spans)\n", tr.ID, tr.Name, len(tr.Spans))
		children := make(map[uint64][]int)
		for i, sp := range tr.Spans {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
		var dump func(parent uint64, depth int)
		dump = func(parent uint64, depth int) {
			for _, i := range children[parent] {
				sp := tr.Spans[i]
				fmt.Fprintf(bw, "%*s%s [%.3f–%.3f ms]", 2+2*depth, "", sp.Name, sp.StartNS/1e6, sp.EndNS/1e6)
				for _, a := range sp.Attrs {
					fmt.Fprintf(bw, " %s=%s", a.Key, a.Value)
				}
				bw.WriteByte('\n')
				dump(sp.ID, depth+1)
			}
		}
		dump(0, 0)
	}
	return bw.Flush()
}
