// Package codegen models the instruction side of the search binary: a
// synthetic text segment laid out as functions of basic blocks, walked at
// run time to produce the instruction-fetch address stream and the dynamic
// conditional-branch stream.
//
// Production search has a ~4 MiB code working set that overflows private L2
// caches (L2 instruction MPKI ≈ 12) yet is fully captured by the shared L3,
// plus a high rate of hard-to-predict data-dependent branches (branch MPKI
// ≈ 9). This package reproduces those properties structurally: a large
// function pool with Zipf popularity for capacity pressure, short loops for
// intra-function locality, and a configurable mix of biased, loop, and
// data-dependent branch behaviours.
package codegen

import (
	"fmt"

	"searchmem/internal/memsim"
	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// BranchClass determines a branch's outcome process.
type BranchClass uint8

const (
	// BiasedBranch is strongly skewed (error-check style): taken with
	// probability Config.BiasedTakenProb.
	BiasedBranch BranchClass = iota
	// LoopBranch is a backward branch taken (iterations-1) out of
	// iterations times: well predicted except at loop exit.
	LoopBranch
	// RandomBranch is data-dependent: a coin flip no predictor can learn.
	// These are what make search's branch MPKI so much higher than SPEC's.
	RandomBranch
)

// bytesPerInstr is the average encoded instruction size.
const bytesPerInstr = 4

// Config describes the synthetic text segment.
type Config struct {
	// NumFuncs is the number of functions in the text segment.
	NumFuncs int
	// BlocksPerFunc is the number of basic blocks per function.
	BlocksPerFunc int
	// InstrsPerBlock is the mean instructions per basic block.
	InstrsPerBlock int
	// FuncZipfSkew sets function popularity (higher = smaller hot set).
	FuncZipfSkew float64
	// BiasedFrac, LoopFrac and the remainder (random) partition branch
	// sites by class.
	BiasedFrac, LoopFrac float64
	// BiasedTakenProb is the taken probability of biased branches.
	BiasedTakenProb float64
	// LoopIterations is the mean trip count of loop branches.
	LoopIterations int
	// Seed drives layout generation.
	Seed uint64
}

// DefaultConfig returns parameters yielding a ~4 MiB text segment in paper
// units (scaled configurations shrink NumFuncs).
func DefaultConfig() Config {
	return Config{
		NumFuncs:        4096,
		BlocksPerFunc:   28,
		InstrsPerBlock:  6,
		FuncZipfSkew:    0.35,
		BiasedFrac:      0.62,
		LoopFrac:        0.28,
		BiasedTakenProb: 0.97,
		LoopIterations:  16,
		Seed:            0xc0de,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumFuncs <= 0 || c.BlocksPerFunc <= 0 || c.InstrsPerBlock <= 0 {
		return fmt.Errorf("codegen: counts must be positive")
	}
	if c.BiasedFrac < 0 || c.LoopFrac < 0 || c.BiasedFrac+c.LoopFrac > 1 {
		return fmt.Errorf("codegen: branch class fractions out of range")
	}
	if c.BiasedTakenProb < 0 || c.BiasedTakenProb > 1 {
		return fmt.Errorf("codegen: biased taken probability out of range")
	}
	if c.LoopIterations < 1 {
		return fmt.Errorf("codegen: loop iterations must be >= 1")
	}
	if c.FuncZipfSkew <= 0 {
		return fmt.Errorf("codegen: zipf skew must be positive")
	}
	return nil
}

// CodeBytes returns the arena size needed for the configuration's text:
// the nominal size plus headroom for randomized block-size variation.
func (c Config) CodeBytes() int {
	nominal := c.NumFuncs * c.BlocksPerFunc * c.InstrsPerBlock * bytesPerInstr
	return nominal + nominal/4 + 4096
}

// block is one basic block in the laid-out text.
type block struct {
	addr     uint64
	nBytes   uint16
	nInstr   uint16
	class    BranchClass
	branchPC uint64
	// loopTarget is the block index this loop branch jumps back to.
	loopTarget int
}

// fn is one laid-out function.
type fn struct {
	entry  uint64
	blocks []block
}

// Program is an immutable laid-out text segment shared by all walkers.
type Program struct {
	cfg   Config
	funcs []fn
	code  *memsim.Arena
}

// New lays the program out inside the provided code arena. The arena must
// have at least Config.CodeBytes() capacity.
func New(cfg Config, code *memsim.Arena) *Program {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := stats.NewRNG(cfg.Seed)
	p := &Program{cfg: cfg, code: code}
	for f := 0; f < cfg.NumFuncs; f++ {
		fun := fn{blocks: make([]block, cfg.BlocksPerFunc)}
		for b := 0; b < cfg.BlocksPerFunc; b++ {
			nInstr := cfg.InstrsPerBlock
			// Vary block sizes a little for realism.
			if rng.Bool(0.5) {
				nInstr += rng.Intn(cfg.InstrsPerBlock) - cfg.InstrsPerBlock/2
				if nInstr < 1 {
					nInstr = 1
				}
			}
			nBytes := nInstr * bytesPerInstr
			addr := code.Alloc(nBytes, 0)
			var class BranchClass
			r := rng.Float64()
			switch {
			case r < cfg.BiasedFrac:
				class = BiasedBranch
			case r < cfg.BiasedFrac+cfg.LoopFrac:
				class = LoopBranch
			default:
				class = RandomBranch
			}
			loopTarget := 0
			if class == LoopBranch && b > 0 {
				loopTarget = b - 1 - rng.Intn(min(b, 3))
			}
			fun.blocks[b] = block{
				addr:       addr,
				nBytes:     uint16(nBytes),
				nInstr:     uint16(nInstr),
				class:      class,
				branchPC:   addr + uint64(nBytes) - bytesPerInstr,
				loopTarget: loopTarget,
			}
			if b == 0 {
				fun.entry = addr
			}
		}
		p.funcs = append(p.funcs, fun)
	}
	return p
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BranchSink receives resolved dynamic branches (pc, taken).
type BranchSink func(pc uint64, taken bool)

// Walker executes the program on one hardware thread: it emits
// instruction-fetch accesses into the code arena's address space, stack
// frame traffic into the thread's stack arena, and resolved branches into
// the sink. Walkers are independent and deterministic given their seed.
type Walker struct {
	prog     *Program
	rng      *stats.RNG
	fsel     *stats.ZipfCDF
	thread   uint8
	stack    *memsim.Arena
	onBranch BranchSink

	sp        uint64
	callDepth int

	// Instructions counts retired instructions; Branches counts resolved
	// conditional branches.
	Instructions int64
	Branches     int64
}

// NewWalker returns a walker for the given thread. stack may be nil to
// skip stack traffic; onBranch may be nil to discard branches.
func (p *Program) NewWalker(thread uint8, seed uint64, stack *memsim.Arena, onBranch BranchSink) *Walker {
	rng := stats.NewRNG(seed ^ 0x57a1cedb)
	return &Walker{
		prog:     p,
		rng:      rng,
		fsel:     stats.NewZipfCDF(rng.Split(), len(p.funcs), p.cfg.FuncZipfSkew),
		thread:   thread,
		stack:    stack,
		onBranch: onBranch,
	}
}

// callBudget bounds the instructions one invocation may retire (roughly two
// passes over the function body) so that loop nests cannot consume an entire
// Run budget inside a single function.
func (w *Walker) callBudget() int {
	return 2 * w.prog.cfg.BlocksPerFunc * w.prog.cfg.InstrsPerBlock
}

// Run executes approximately budget instructions across one or more
// function invocations, returning the instructions actually retired.
func (w *Walker) Run(budget int) int64 {
	start := w.Instructions
	per := w.callBudget()
	for w.Instructions-start < int64(budget) {
		w.call(w.fsel.Next(), per)
	}
	return w.Instructions - start
}

// RunFunc executes approximately budget instructions inside one specific
// function (engine phases pin their hot function this way).
func (w *Walker) RunFunc(funcID int, budget int) int64 {
	start := w.Instructions
	per := w.callBudget()
	for w.Instructions-start < int64(budget) {
		w.call(funcID, per)
	}
	return w.Instructions - start
}

// call walks one function invocation, bounded by the caller's budget.
func (w *Walker) call(funcID int, budget int) {
	f := &w.prog.funcs[funcID%len(w.prog.funcs)]
	// Call prologue: push a frame.
	if w.stack != nil {
		frame := uint64(64)
		if w.sp+frame > uint64(w.stack.Size()) {
			w.sp = 0 // simulated deep recursion unwinds
		}
		w.stack.Touch(w.thread, w.stack.Base()+w.sp, 32, trace.Write)
		w.sp += frame
		w.callDepth++
	}
	executed := 0
	loopsLeft := make(map[int]int)
	for b := 0; b < len(f.blocks) && executed < budget; {
		blk := &f.blocks[b]
		w.prog.code.Touch(w.thread, blk.addr, int(blk.nBytes), trace.Fetch)
		w.Instructions += int64(blk.nInstr)
		executed += int(blk.nInstr)

		taken := false
		switch blk.class {
		case BiasedBranch:
			taken = w.rng.Bool(w.prog.cfg.BiasedTakenProb)
			w.emitBranch(blk.branchPC, taken)
			b++
		case LoopBranch:
			remaining, ok := loopsLeft[b]
			if !ok {
				remaining = 1 + w.rng.Intn(2*w.prog.cfg.LoopIterations)
			}
			remaining--
			taken = remaining > 0
			w.emitBranch(blk.branchPC, taken)
			if taken {
				loopsLeft[b] = remaining
				b = blk.loopTarget
			} else {
				delete(loopsLeft, b)
				b++
			}
		case RandomBranch:
			taken = w.rng.Bool(0.5)
			w.emitBranch(blk.branchPC, taken)
			if taken {
				b += 2 // skip the fall-through block
			} else {
				b++
			}
		}
	}
	// Epilogue: pop the frame.
	if w.stack != nil {
		w.callDepth--
		if w.sp >= 64 {
			w.sp -= 64
		}
		w.stack.Touch(w.thread, w.stack.Base()+w.sp, 16, trace.Read)
	}
}

func (w *Walker) emitBranch(pc uint64, taken bool) {
	w.Branches++
	if w.onBranch != nil {
		w.onBranch(pc, taken)
	}
}
