// Command searchsim runs the paper-reproduction experiments and prints the
// regenerated tables and figures.
//
// Usage:
//
//	searchsim -list
//	searchsim [-fast] [-budget N] [-threads N] [-seed N] [-v] all
//	searchsim [-fast] table1 fig6b fig14 ...
//	searchsim [-fast] -trace trace.json -metrics metrics.json fleetprof degraded
//	searchsim [-fast] -cpuprofile cpu.pprof -memprofile mem.pprof figF1
//
// -trace exports every span recorded during the run (serving-tree queries,
// profiler sampling windows) as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. -metrics exports the unified metrics
// registry as JSON and prints a per-stage serving latency summary after the
// experiments. Both exports are deterministic: the same seed produces
// byte-identical files.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the simulator
// itself (go tool pprof -top searchsim cpu.pprof). They observe the host
// process only: stdout and the -trace/-metrics exports are byte-identical
// with and without them, and both files are written however the run ends.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"searchmem/internal/det"
	"searchmem/internal/experiments"
	"searchmem/internal/obs"
	"searchmem/internal/workload"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code for a result, so that the deferred profile
// writers run on every way out.
func run() (code int) {
	var (
		list     = flag.Bool("list", false, "list experiment ids and exit")
		fast     = flag.Bool("fast", false, "run at reduced scale (quick, uncalibrated)")
		budget   = flag.Int64("budget", 0, "override measured instruction budget per configuration")
		threads  = flag.Int("threads", 0, "override trace thread count, 1..16 (0 = the preset's)")
		shrink   = flag.Int("shrink", 0, "override workload shrink factor")
		seed     = flag.Uint64("seed", 1, "input-stream seed")
		parallel = flag.Bool("parallel", true, "fan sweep points across CPUs (output is byte-identical to -parallel=false)")
		verbose  = flag.Bool("v", false, "progress output")

		traceOut   = flag.String("trace", "", "write Chrome trace-event JSON of recorded spans to this file")
		metricsOut = flag.String("metrics", "", "write metrics-registry snapshot JSON to this file and print serving stage summaries")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken at exit to this file")

		traceSpill = flag.String("trace-spill", "", "spill the recordings' compressed blocks to unlinked temp files in this directory instead of RAM (use e.g. /tmp; output is byte-identical)")

		fleetClients = flag.Int("fleet-clients", 0, "modeled user population for the fleet sweeps (figF1/figF2; 0 = shrink-scaled default)")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %-10s %s\n", e.ID, e.PaperRef, e.Title)
		}
		return 0
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: searchsim [-fast] [-v] all | <experiment-id>...")
		fmt.Fprintln(os.Stderr, "run 'searchsim -list' for available experiments")
		return 2
	}

	opts := experiments.Full()
	if *fast {
		opts = experiments.Fast()
	}
	if *budget > 0 {
		opts.Budget = *budget
	}
	if *threads > 0 {
		opts.Threads = *threads
	}
	if *shrink > 0 {
		opts.Shrink = *shrink
	}
	opts.Seed = *seed
	opts.Parallel = *parallel
	opts.TraceSpillDir = *traceSpill
	opts.FleetClients = *fleetClients
	if *budget < 0 {
		fmt.Fprintln(os.Stderr, "-budget must be non-negative (0 keeps the preset)")
		return 2
	}
	if *shrink < 0 {
		fmt.Fprintln(os.Stderr, "-shrink must be non-negative (0 keeps the preset)")
		return 2
	}
	if *threads < 0 || *threads > 16 {
		fmt.Fprintln(os.Stderr, "-threads must be in 0..16 (0 keeps the preset)")
		return 2
	}
	if *traceSpill != "" {
		// Recording has no error path, so a directory that cannot hold a
		// spill file is found here and not as a panic mid-run.
		f, err := os.CreateTemp(*traceSpill, "searchmem-trace-*.probe")
		if err != nil {
			fmt.Fprintf(os.Stderr, "-trace-spill: %v\n", err)
			return 2
		}
		f.Close()
		os.Remove(f.Name())
	}
	if *fleetClients < 0 {
		fmt.Fprintln(os.Stderr, "-fleet-clients must be non-negative")
		return 2
	}
	if *verbose {
		opts.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", a...)
		}
	}
	if *traceOut != "" {
		opts.Tracer = obs.NewTracer()
	}
	if *metricsOut != "" {
		opts.Metrics = obs.NewRegistry()
	}
	ctx := experiments.NewContext(opts)

	var selected []experiments.Experiment
	if len(args) == 1 && args[0] == "all" {
		selected = experiments.All()
	} else {
		for _, id := range args {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		start := time.Now()
		cpuStart := processCPU()
		res, err := e.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			return 1
		}
		fmt.Printf("=== %s (%s) — %s\n", e.ID, e.PaperRef, e.Title)
		fmt.Println(res.Render())
		if *verbose {
			// CPU beside wall shows a serial stretch without a profiler: an
			// experiment at 1.00 cores left the other workers idle.
			wall, cpu := time.Since(start), processCPU()-cpuStart
			fmt.Fprintf(os.Stderr, "# %s took %v (cpu %v, %.2f cores)\n", e.ID,
				wall.Round(time.Millisecond), cpu.Round(time.Millisecond), cpu.Seconds()/max(wall.Seconds(), 1e-9))
		}
	}

	if *verbose {
		printStoreSummary(ctx)
	}
	if opts.Metrics != nil {
		ctx.ReportTraceStores(opts.Metrics)
		snap := opts.Metrics.Snapshot()
		printServingStages(snap)
		if err := writeMetrics(*metricsOut, snap); err != nil {
			fmt.Fprintf(os.Stderr, "writing metrics: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", *metricsOut)
	}
	if opts.Tracer != nil {
		traces := opts.Tracer.Take()
		if err := writeTrace(*traceOut, traces); err != nil {
			fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %d traces to %s\n", len(traces), *traceOut)
	}
	return 0
}

// processCPU returns the user and system CPU time the process has used so
// far. Like the timer beside it, it is host state for -v's stderr line only
// and never feeds simulation state or an export.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// printStoreSummary reports how many measured runs split their L1–L3 by
// set, trace-store footprints, the retained post-L3 streams and
// process-memory high-water marks on stderr. The stream lines say how many
// L1–L3 passes the run made over each upper that sweeps share; the split
// count and the process-memory lines are environmental (they vary with the
// host and run to run), so they never enter the -metrics registry, which
// stays byte-identical for a fixed seed.
func printStoreSummary(ctx *experiments.Context) {
	split, runs := workload.SplitRuns()
	fmt.Fprintf(os.Stderr, "# partitioned %d of %d measurements\n", split, runs)
	stores := ctx.TraceStores()
	fmt.Fprintln(os.Stderr, "# trace stores:")
	for _, key := range det.SortedKeys(stores) {
		st := stores[key]
		loc := "ram"
		if st.SpilledBytes > 0 {
			loc = "spilled"
		}
		fmt.Fprintf(os.Stderr, "#   %-16s %d recordings, %d accesses in %d bytes (%s), %d branches in %d bytes (ram)\n",
			key, st.Recordings, st.Accesses, st.StoredBytes, loc, st.Branches, st.BranchBytes)
	}
	// Each retained post-L3 stream is one L1–L3 pass that every tail it
	// served (and every sweep that found it) did not repeat.
	fmt.Fprintln(os.Stderr, "# post-L3 streams:")
	for _, s := range ctx.PostL3Streams() {
		fmt.Fprintf(os.Stderr, "#   %-16s %s: %d events in %d bytes, %d tails served, %d memo hits\n",
			s.Runner, s.Upper, s.Events, s.Bytes, s.Tails, s.Hits)
	}
	// Process memory: the runtime's high-water of OS memory (the RSS proxy
	// bounded-memory replay is judged by) and the live heap now.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(os.Stderr, "#   process_heap_inuse_bytes = %d\n", ms.HeapInuse)
	fmt.Fprintf(os.Stderr, "#   process_peak_sys_bytes = %d\n", ms.Sys)
}

// printServingStages summarizes the per-stage serving-latency histograms the
// experiment clusters (slo, degraded) reported into the shared registry.
func printServingStages(snap obs.Snapshot) {
	var rows []obs.HistSnap
	for _, h := range snap.Histograms {
		if h.Name == "serving_stage_latency_ns" && h.Count > 0 {
			rows = append(rows, h)
		}
	}
	if len(rows) == 0 {
		return
	}
	label := func(h obs.HistSnap, key string) string {
		for _, l := range h.Labels {
			if l.Key == key {
				return l.Value
			}
		}
		return ""
	}
	fmt.Println("=== serving stage latency (from -metrics registry)")
	fmt.Printf("%-18s %-12s %9s %10s %10s %10s\n", "cluster", "stage", "count", "mean ms", "p95 ms", "p99 ms")
	for _, h := range rows {
		fmt.Printf("%-18s %-12s %9d %10.3f %10.3f %10.3f\n",
			label(h, "cluster"), label(h, "stage"), h.Count, h.Mean/1e6, h.P95/1e6, h.P99/1e6)
	}
	fmt.Println()
}

// writeMetrics writes the snapshot JSON to path.
func writeMetrics(path string, snap obs.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := snap.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// writeTrace writes the Chrome trace-event JSON to path.
func writeTrace(path string, traces []obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := obs.WriteChromeTrace(w, traces); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// startProfiles begins the CPU profile (if asked for) and returns the
// function that ends it and writes the heap profile (if asked for). Both
// files are created up front, so a bad path fails before any experiment runs.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	stop = func() error { return nil }
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		stop = func() error {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
			return nil
		}
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("-memprofile: %w", err), stop())
		}
		stopCPU := stop
		stop = func() error {
			cpuErr := stopCPU()
			runtime.GC() // settle the live-heap figures the profile reports
			err := pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				err = fmt.Errorf("-memprofile %s: %w", memPath, err)
			}
			return errors.Join(cpuErr, err)
		}
	}
	return stop, nil
}
