package main

import "searchmem/internal/stats"

// hostSizes are the working sets of the three pointer chases: inside the
// host's L1, inside its last-level cache, and far beyond it.
var hostSizes = [3]int{16 << 10, 2 << 20, 256 << 20}

// chaseSink receives every chase's final pointer so the compiler cannot
// drop the dependent loads.
var chaseSink uint32

// hostProbe characterises the host's own memory hierarchy in the style of
// Cooper & Xu (PAPERS.md): a chain of dependent loads through a seeded
// random cycle of cache lines, whose time per load is the latency of the
// level the working set fits in. The three figures are normalisers: they
// explain why every ns/access metric shifts between hosts, and no change to
// the simulator should move them.
func hostProbe(seed uint64, sizes [3]int) (l1NS, llcNS, dramNS float64) {
	rng := stats.NewRNG(seed ^ 0x686f7374)
	return chaseNS(sizes[0], 1<<22, rng), chaseNS(sizes[1], 1<<21, rng), chaseNS(sizes[2], 1<<20, rng)
}

// chaseNS returns the nanoseconds per dependent load over a working set of
// the given size. One element per 64-byte host line is used, so spatial
// locality and the adjacent-line prefetcher get no purchase.
func chaseNS(bytes, steps int, rng *stats.RNG) float64 {
	const stride = 64 / 4 // uint32 slots per host line
	lines := bytes / 64
	order := make([]uint32, lines)
	for i := range order {
		order[i] = uint32(i)
	}
	rng.Shuffle(lines, func(i, j int) { order[i], order[j] = order[j], order[i] })
	// Linking the shuffled lines in order makes one cycle through all of them.
	next := make([]uint32, lines*stride)
	for k, line := range order {
		next[line*stride] = order[(k+1)%lines] * stride
	}
	p := uint32(0)
	for i := 0; i < min(lines, steps); i++ { // one lap pulls a cache-sized set in
		p = next[p]
	}
	t0 := now()
	for i := 0; i < steps; i++ {
		p = next[p]
	}
	ns := since(t0) * 1e9 / float64(steps)
	chaseSink += p
	return ns
}
