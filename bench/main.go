// Command bench is the repository's one benchmark (see README.md in this
// directory and BENCHMARK.json at the root):
//
//	go run ./bench                      # all four workloads, full report + bench/out/bench.json
//	go run ./bench -workload W -seed S -seconds T -trace 0|1
//	                                    # one workload; the last line of output is one JSON object
//	go run ./bench -smoke               # every workload in-process at a tiny size
//
// Every repetition runs in a fresh child process of this binary
// (-child W), with GOMAXPROCS=2 and one load-generating goroutine; the
// simulator's own sweep workers are the only parallelism.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"searchmem/internal/det"
)

const (
	outDir          = "bench/out"
	childGOMAXPROCS = 2
	// childTimeout keeps a wedged child from outliving the 180 s a run is
	// allowed; the slowest child (paper_suite, traced) takes about 50 s.
	childTimeout = 170 * time.Second
)

func main() {
	start := now()
	var (
		workload = flag.String("workload", "", "run only this workload and end with one JSON line (replay_deep, replay_resident, fleet_day, paper_suite)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "timed phase of one run, shared by its children (1-60)")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		smoke    = flag.Bool("smoke", false, "run every workload in-process at a tiny size")
		child    = flag.String("child", "", "internal: run one repetition of this workload and print its report")
		passes   = flag.Int("passes", 1, "internal: timed passes of a child")
		traced   = flag.Bool("traced", false, "internal: the child is the traced one")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *seconds > 60 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case *child != "":
		w, ok := workloadByName(*child)
		if !ok {
			fatalf("unknown workload %q", *child)
		}
		var r childReport
		if *traced {
			var err error
			if r, err = runTraced(w, false, *seed, hostSizes, outDir); err != nil {
				fatalf("%v", err)
			}
		} else {
			r = runUntraced(w, false, *seed, *passes, start)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fatalf("%v", err)
		}
	case *smoke:
		failed := 0
		for _, w := range workloads {
			res := runSmoke(w, *seed)
			res.print(os.Stdout)
			failed += res.Failed
		}
		exit(failed)
	case *workload != "":
		w, ok := workloadByName(*workload)
		if !ok {
			fatalf("unknown workload %q", *workload)
		}
		h := hostHeader(*seed, *seconds)
		h.print(os.Stdout)
		children := w.driverChildren
		if *trace == 1 {
			children = 0 // the traced child alone: end-to-end numbers never come from a traced run
		}
		res, err := runWorkload(w, *seed, *seconds, children, *trace == 1)
		if err != nil {
			fatalf("%v", err)
		}
		res.print(os.Stdout)
		line, err := json.Marshal(res.contractLine(*trace == 1))
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s\n", line)
		exit(res.Failed)
	default:
		h := hostHeader(*seed, *seconds)
		h.print(os.Stdout)
		art := artifact{Host: h}
		failed := 0
		for _, w := range workloads {
			res, err := runWorkload(w, *seed, *seconds, w.children, true)
			if err != nil {
				fatalf("%v", err)
			}
			res.print(os.Stdout)
			failed += res.Failed
			art.Workloads = append(art.Workloads, res)
		}
		data, err := json.MarshalIndent(art, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(outDir, "bench.json"), data, 0o644)
		}
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("\nchecks_failed = %d; artifact written to %s\n", failed, filepath.Join(outDir, "bench.json"))
		exit(failed)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// exit makes a failed check a failed command.
func exit(failedChecks int) {
	if failedChecks > 0 {
		os.Exit(1)
	}
}

// host is the header that makes two artifacts comparable, or visibly not.
type host struct {
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Scale        string  `json:"scale"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	DegradedHost bool    `json:"degraded_host"`
}

func hostHeader(seed uint64, seconds float64) host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: childGOMAXPROCS,
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Scale:      "fast (uncalibrated: model unvalidated at this scale, no error-vs-paper figure)",
		Seed:       seed,
		Seconds:    seconds,
	}
	h.DegradedHost = h.NProc < 2
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func (h host) print(w io.Writer) {
	fmt.Fprintf(w, "# searchmem bench: cpu=%q nproc=%d GOMAXPROCS=%d %s commit=%s degraded_host=%v\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.DegradedHost)
	fmt.Fprintf(w, "# scale=%s; seed=%d; seconds=%g\n", h.Scale, h.Seed, h.Seconds)
}

// sample is one end-to-end metric over a workload's children.
type sample struct {
	Median float64   `json:"median"`
	IQR    float64   `json:"iqr"`
	N      int       `json:"n"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func newSample(unit string, values []float64) sample {
	q1, med, q3 := quartiles(values)
	return sample{Median: med, IQR: q3 - q1, N: len(values), Unit: unit, Values: values}
}

// result is one workload's block of the report and of the artifact.
type result struct {
	Name     string            `json:"name"`
	Why      string            `json:"why"`
	Op       string            `json:"op"`
	Children int               `json:"children"`
	Passes   int               `json:"passes_per_child"`
	EndToEnd map[string]sample `json:"end_to_end,omitempty"`
	Digest   string            `json:"sim_digest"`
	checks
	Layers map[string]metric `json:"layers,omitempty"`
	Budget []budgetRow       `json:"budget,omitempty"`
}

// endToEnd reduces the untraced children to the three end-to-end metrics.
func endToEnd(reports []childReport) map[string]sample {
	var setup, rate, rss []float64
	for _, c := range reports {
		setup = append(setup, c.SetupS)
		rate = append(rate, float64(c.Ops)/c.TimedS)
		rss = append(rss, c.PeakRSSMiB)
	}
	return map[string]sample{
		"setup_s":       newSample("s", setup),
		"sim_ops_per_s": newSample("ops/s", rate),
		"peak_rss_mib":  newSample("MiB", rss),
	}
}

// runWorkload runs a workload's untraced children one after another, then
// (optionally) its traced child, and cross-checks them.
func runWorkload(w workloadDef, seed uint64, seconds float64, children int, traced bool) (result, error) {
	res := result{Name: w.name, Why: w.why, Op: w.op, Children: children}
	if children > 0 {
		res.Passes = w.passesFor(seconds, children)
	}
	var reports []childReport
	for i := 0; i < children; i++ {
		c, err := spawn(w, seed, res.Passes, false)
		if err != nil {
			return res, err
		}
		reports = append(reports, c)
	}
	if traced {
		c, err := spawn(w, seed, 1, true)
		if err != nil {
			return res, err
		}
		res.Layers, res.Budget = c.Layers, c.Budget
		reports = append(reports, c)
	}
	res.absorb(reports)
	if children > 0 {
		res.EndToEnd = endToEnd(reports[:children])
	}
	return res, nil
}

// absorb adds the repetitions' checks to the workload's and checks that
// they all modelled the same thing.
func (r *result) absorb(reports []childReport) {
	r.Digest = reports[0].Digest
	for _, c := range reports {
		r.Attempted += c.Attempted
		r.Failed += c.Failed
		r.Failures = append(r.Failures, c.Failures...)
		r.that(c.Digest == r.Digest, "%s: sim_digest differs between repetitions (%s, %s)", r.Name, c.Digest, r.Digest)
	}
}

// spawn runs one repetition in a fresh process of this binary and reads its
// report; the peak RSS comes from the kernel's accounting of the child.
func spawn(w workloadDef, seed uint64, passes int, traced bool) (childReport, error) {
	var r childReport
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return r, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", w.name, "-seed", fmt.Sprint(seed), "-passes", fmt.Sprint(passes), fmt.Sprintf("-traced=%v", traced))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childGOMAXPROCS))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("child %s: %w", w.name, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return r, fmt.Errorf("child %s: reading its report: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// print writes the workload's block: every metric by name with its unit.
func (r result) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s\n   op: %s; %d untraced children x %d passes\n", r.Name, r.Why, r.Op, r.Children, r.Passes)
	for _, name := range det.SortedKeys(r.EndToEnd) {
		s := r.EndToEnd[name]
		fmt.Fprintf(w, "%-44s = %14.6g %-10s (median of %d, IQR %.4g)\n", r.Name+"."+name, s.Median, s.Unit, s.N, s.IQR)
	}
	fmt.Fprintf(w, "%-44s = %s\n", r.Name+".sim_digest", r.Digest)
	fmt.Fprintf(w, "%-44s = %d of %d\n", r.Name+".checks_failed", r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.Budget != nil {
		fmt.Fprintf(w, "budget of the traced run (self time = span - its children; a phase's rows sum to its wall):\n")
		fmt.Fprintf(w, "  %-8s %-32s %8s %11s %7s\n", "phase", "span", "calls", "self s", "share")
		for _, row := range r.Budget {
			fmt.Fprintf(w, "  %-8s %-32s %8d %11.6f %6.1f%%\n", row.Phase, row.Span, row.Calls, row.SelfS, 100*row.Share)
		}
	}
	for _, name := range det.SortedKeys(r.Layers) {
		m := r.Layers[name]
		fmt.Fprintf(w, "%-44s = %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// contractLine is the one JSON object a -workload run ends with.
func (r result) contractLine(traced bool) map[string]any {
	metrics := map[string]metric{}
	if traced {
		for _, name := range contractLayers() {
			metrics[name] = r.Layers[name]
		}
	} else {
		for _, name := range det.SortedKeys(r.EndToEnd) {
			metrics[name] = metric{r.EndToEnd[name].Median, r.EndToEnd[name].Unit}
		}
	}
	return map[string]any{"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// contractLayers is the per_layer list of BENCHMARK.json: the metrics every
// workload's traced run emits. The named layer metrics (cache.*, mem.*, ...)
// belong to one workload each and are printed, not gated.
func contractLayers() []string {
	names := []string{"host.l1_ns", "host.llc_ns", "host.dram_ns", "bench.trace_overhead_frac", "budget.traced_s", "budget.residual_frac"}
	for _, layer := range budgetLayers {
		names = append(names, "budget."+layer+"_frac")
	}
	return names
}

// artifact is bench/out/bench.json.
type artifact struct {
	Host      host     `json:"host"`
	Workloads []result `json:"workloads"`
}

// quartiles returns the first quartile, the median and the third quartile
// as Python's statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(values []float64) (q1, median, q3 float64) {
	v := append([]float64(nil), values...)
	slices.Sort(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
