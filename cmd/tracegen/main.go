// Command tracegen builds a calibrated workload profile, executes it, and
// writes the resulting memory-access trace to a compact binary file that
// cmd/cachesim (or any trace.Reader user) can replay — the reproduction's
// equivalent of capturing a Pin trace from a production server.
//
// Usage:
//
//	tracegen -profile s1-leaf -instructions 2000000 -threads 4 -o leaf.smtr
package main

import (
	"flag"
	"fmt"
	"os"

	"searchmem/internal/det"
	"searchmem/internal/trace"
	"searchmem/internal/workload"
)

// profiles maps CLI names to profile constructors.
func profiles(shrink int) map[string]func() workload.Runner {
	return map[string]func() workload.Runner{
		"s1-leaf":       func() workload.Runner { return workload.S1Leaf(shrink).Build() },
		"s2-leaf":       func() workload.Runner { return workload.S2Leaf(shrink).Build() },
		"s3-leaf":       func() workload.Runner { return workload.S3Leaf(shrink).Build() },
		"s1-root":       func() workload.Runner { return workload.S1Root(shrink).Build() },
		"s1-leaf-sweep": func() workload.Runner { return workload.S1LeafSweep(shrink).Build() },
		"perlbench":     func() workload.Runner { return workload.SPECPerlbench().Build() },
		"mcf":           func() workload.Runner { return workload.SPECMcf().Build() },
		"gobmk":         func() workload.Runner { return workload.SPECGobmk().Build() },
		"omnetpp":       func() workload.Runner { return workload.SPECOmnetpp().Build() },
		"cloudsuite":    func() workload.Runner { return workload.CloudSuiteWebSearch().Build() },
	}
}

func main() {
	var (
		profile = flag.String("profile", "s1-leaf", "workload profile")
		instrs  = flag.Int64("instructions", 2_000_000, "instruction budget")
		threads = flag.Int("threads", 4, "hardware threads")
		shrink  = flag.Int("shrink", 4, "workload shrink factor (1 = full calibrated scale)")
		seed    = flag.Uint64("seed", 1, "input seed")
		out     = flag.String("o", "trace.smtr", "output trace file")
		list    = flag.Bool("list", false, "list profiles and exit")
	)
	flag.Parse()
	need := func(ok bool, flag, want string, got int64) {
		if !ok {
			fmt.Fprintf(os.Stderr, "tracegen: %s must be %s, got %d\n", flag, want, got)
			os.Exit(2)
		}
	}
	need(*instrs > 0, "-instructions", "positive", *instrs)
	// The trace file format packs the thread id into 4 bits.
	need(*threads >= 1 && *threads <= 16, "-threads", "in 1..16", int64(*threads))
	need(*shrink >= 1, "-shrink", "at least 1", int64(*shrink))

	ps := profiles(*shrink)
	if *list {
		for _, name := range det.SortedKeys(ps) {
			fmt.Println(name)
		}
		return
	}
	build, ok := ps[*profile]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown profile %q (try -list)\n", *profile)
		os.Exit(2)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "building %s (shrink %d)...\n", *profile, *shrink)
	runner := build()
	st := runner.Run(*threads, *instrs, *seed, workload.Sinks{
		Access: func(a trace.Access) {
			if err := w.Write(a); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		},
	})
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	info, _ := f.Stat()
	fmt.Fprintf(os.Stderr, "wrote %d accesses (%d instructions, %d queries) to %s (%d bytes, %.2f B/access)\n",
		w.Count(), st.Instructions, st.Queries, *out, info.Size(),
		float64(info.Size())/float64(w.Count()))
}
