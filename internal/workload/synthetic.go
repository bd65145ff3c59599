package workload

import (
	"fmt"

	"searchmem/internal/codegen"
	"searchmem/internal/memsim"
	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// SyntheticWorkload models the comparison benchmarks of Table I: SPEC
// CPU2006 applications and the CloudSuite Web Search. Each is characterized
// by its code size and branch behaviour (via codegen.Config), its data
// footprint and reuse skew, and its access mix — the axes along which the
// paper contrasts them with production search.
type SyntheticWorkload struct {
	// WLName identifies the profile ("429.mcf", ...).
	WLName string
	// Code configures the (usually small) text segment.
	Code codegen.Config
	// HeapBytes is the randomly-reused data footprint; HeapSkew its Zipf
	// popularity skew (higher = tighter hot set).
	HeapBytes int64
	HeapSkew  float64
	// Scan adds a sequentially-streamed region of scanBytes that
	// streamFrac of the accesses walk.
	Scan bool
	// LoadsPerKI and StoresPerKI set the data-access mix.
	LoadsPerKI, StoresPerKI int
	// MemOverlapFactor is the workload's MLP blocking factor for the core
	// model (pointer chasers like mcf serialize misses: high value).
	MemOverlapFactor float64
	// Seed drives generation.
	Seed uint64
}

// The synthetic profiles' fixed shapes.
const (
	// scanBytes sizes a Scan profile's streamed region, and streamFrac is
	// the fraction of its data accesses that walk it.
	scanBytes  = 64 << 10
	streamFrac = 0.02
	// accessBytes is the width of each data reference.
	accessBytes = 8
	// syntheticStackBytes sizes each thread's stack.
	syntheticStackBytes = 64 << 10
)

// Validate reports whether the profile is runnable.
func (w SyntheticWorkload) Validate() error {
	if err := w.Code.Validate(); err != nil {
		return err
	}
	if w.HeapBytes <= 0 || w.HeapSkew <= 0 {
		return fmt.Errorf("workload %s: heap parameters must be positive", w.WLName)
	}
	if w.LoadsPerKI < 0 || w.StoresPerKI < 0 || w.LoadsPerKI+w.StoresPerKI == 0 {
		return fmt.Errorf("workload %s: need a positive access mix", w.WLName)
	}
	if w.MemOverlapFactor < 0 || w.MemOverlapFactor > 1 {
		return fmt.Errorf("workload %s: overlap factor out of range", w.WLName)
	}
	return nil
}

// SyntheticRunner is a built synthetic workload.
type SyntheticRunner struct {
	wl    SyntheticWorkload
	space *memsim.Space
	prog  *codegen.Program
	heap  *memsim.Arena
	scan  *memsim.Arena
	// heapZipf is the heap blocks' popularity, one shape for every thread
	// and run; each thread draws from it with its own stream.
	heapZipf *stats.ZipfShape

	walkers  []*codegen.Walker
	scanPos  []uint64
	branches *Sinks
	curTid   uint8
}

// Build constructs the runner (cheap for synthetic profiles: arenas are
// phantom, nothing is indexed).
func (w SyntheticWorkload) Build() *SyntheticRunner {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	r := &SyntheticRunner{wl: w}
	r.space = memsim.NewSpace(nil)
	code := r.space.NewArena("code", trace.Code, w.Code.CodeBytes())
	r.prog = codegen.New(w.Code, code)
	r.heap = r.space.NewPhantomArena("data", trace.Heap, w.HeapBytes)
	r.heapZipf = stats.NewZipfShape(max(uint64(w.HeapBytes)/64, 1), w.HeapSkew)
	if w.Scan {
		r.scan = r.space.NewPhantomArena("scan", trace.Heap, scanBytes)
	}
	return r
}

// Name implements Runner.
func (r *SyntheticRunner) Name() string { return r.wl.WLName }

// MemOverlap implements Runner.
func (r *SyntheticRunner) MemOverlap() float64 { return r.wl.MemOverlapFactor }

func (r *SyntheticRunner) walker(t int) *codegen.Walker {
	for len(r.walkers) <= t {
		idx := len(r.walkers)
		stack := r.space.ThreadStackArena(uint8(idx), syntheticStackBytes)
		w := r.prog.NewWalker(uint8(idx&0x0f), r.wl.Seed+uint64(idx)*131, stack,
			func(pc uint64, taken bool) {
				if r.branches != nil && r.branches.Branch != nil {
					r.branches.Branch(r.curTid, pc, taken)
				}
			})
		r.walkers = append(r.walkers, w)
		r.scanPos = append(r.scanPos, uint64(idx)*4096)
	}
	return r.walkers[t]
}

// chunkInstrs is the granularity at which code execution and data accesses
// interleave within one thread.
const chunkInstrs = 400

// Run implements Runner.
func (r *SyntheticRunner) Run(threads int, instrBudget int64, seed uint64, s Sinks) Stats {
	if threads <= 0 {
		panic("workload: threads must be positive")
	}
	var st Stats
	perThread := instrBudget / int64(threads)
	rngs := make([]*stats.RNG, threads)
	heapRNGs := make([]*stats.RNG, threads)
	startInstr := make([]int64, threads)
	startBr := make([]int64, threads)
	for t := 0; t < threads; t++ {
		w := r.walker(t)
		rngs[t] = stats.NewRNG(seed*2_000_000_011 + uint64(t)*17 + 3)
		heapRNGs[t] = rngs[t].Split()
		startInstr[t] = w.Instructions
		startBr[t] = w.Branches
	}

	r.branches = &s
	defer func() { r.branches = nil; r.space.SetRecorder(nil) }()

	var buf []trace.Access
	record := func(a trace.Access) { buf = append(buf, a) }
	runChunk := func(t int, drained []trace.Access) ([]trace.Access, bool) {
		w := r.walkers[t]
		if w.Instructions-startInstr[t] >= perThread {
			return nil, false
		}
		buf = drained
		r.curTid = uint8(t & 0x0f)
		r.space.SetRecorder(record)
		executed := w.Run(chunkInstrs)
		// Issue the data accesses this chunk implies.
		rng := rngs[t]
		loads := int(executed) * r.wl.LoadsPerKI / 1000
		stores := int(executed) * r.wl.StoresPerKI / 1000
		for i := 0; i < loads+stores; i++ {
			kind := trace.Read
			if i >= loads {
				kind = trace.Write
			}
			var addr uint64
			if r.scan != nil && rng.Bool(streamFrac) {
				addr = r.scan.Base() + r.scanPos[t]
				r.scanPos[t] += accessBytes
				if r.scanPos[t]+64 >= scanBytes {
					r.scanPos[t] = 0
				}
				r.scan.Touch(r.curTid, addr, accessBytes, kind)
				continue
			}
			addr = r.heap.Base() + r.heapZipf.Next(heapRNGs[t])*64 + uint64(rng.Intn(64-accessBytes+1))
			r.heap.Touch(r.curTid, addr, accessBytes, kind)
		}
		r.space.SetRecorder(nil)
		return buf, true
	}

	iv := newInterleaver(threads, 64, s.Access, runChunk)
	st.Accesses = iv.run()
	for t := 0; t < threads; t++ {
		st.Instructions += r.walkers[t].Instructions - startInstr[t]
		st.Branches += r.walkers[t].Branches - startBr[t]
	}
	return st
}
