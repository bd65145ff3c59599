package main

import "syscall"

// smokeHostSizes keep the pointer chase of a smoke run inside the caches.
var smokeHostSizes = [3]int{16 << 10, 64 << 10, 256 << 10}

// runSmoke runs one workload in this process at a tiny size: two untraced
// passes, then the traced run. It is what `go test` exercises, so the
// benchmark keeps compiling and its checks keep holding when a layer's API
// moves; its timings mean nothing.
func runSmoke(w workloadDef, seed uint64) result {
	res := result{Name: w.name, Why: w.why, Op: w.op, Children: 1, Passes: 2}
	untraced := runUntraced(w, true, seed, res.Passes, now())
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		untraced.PeakRSSMiB = float64(ru.Maxrss) / 1024
	}
	traced, err := runTraced(w, true, seed, smokeHostSizes, "")
	if err != nil {
		panic(err) // unreachable: no span file is written
	}
	res.EndToEnd = endToEnd([]childReport{untraced})
	res.Layers, res.Budget = traced.Layers, traced.Budget
	res.absorb([]childReport{untraced, traced})
	return res
}
