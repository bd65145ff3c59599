// Command tracegen builds a calibrated workload profile, executes it, and
// writes the resulting memory-access trace to a trace file (a block-
// compressed recording, internal/trace's file.go) that cmd/cachesim or
// trace.OpenFile can replay — the reproduction's equivalent of capturing a
// Pin trace from a production server.
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
	// A search profile's engine serves at most MaxSessions (16) threads.
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

	// check exits 1 on an I/O or encoding error.
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	f, err := os.Create(*out)
	check(err)
	w, err := trace.NewFileWriter(f, 0)
	check(err)

	fmt.Fprintf(os.Stderr, "building %s (shrink %d)...\n", *profile, *shrink)
	runner := build()
	st := runner.Run(*threads, *instrs, *seed, workload.Sinks{
		Access: func(a trace.Access) { check(w.Add(a)) },
	})
	c, err := w.FinishFile()
	check(err)
	info, err := f.Stat()
	check(err)
	check(f.Close())
	fmt.Fprintf(os.Stderr, "wrote %d accesses (%d instructions, %d queries) to %s (%d bytes, %.2f B/access)\n",
		c.Len(), st.Instructions, st.Queries, *out, info.Size(),
		float64(info.Size())/float64(c.Len()))
}
