package codegen

import (
	"testing"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
	"searchmem/internal/memsim"
	"searchmem/internal/trace"
)

// testConfig is a small, fast program for unit tests.
func testConfig() Config {
	c := DefaultConfig()
	c.NumFuncs = 128
	c.BlocksPerFunc = 12
	return c
}

func buildProgram(t *testing.T, cfg Config, rec memsim.Recorder) (*Program, *memsim.Space) {
	t.Helper()
	space := memsim.NewSpace(rec)
	code := space.NewArena("code", trace.Code, cfg.CodeBytes())
	return New(cfg, code), space
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(); c.BiasedFrac = 0.9; c.LoopFrac = 0.3; return c }(),
		func() Config { c := DefaultConfig(); c.BiasedTakenProb = 1.5; return c }(),
		func() Config { c := DefaultConfig(); c.LoopIterations = 0; return c }(),
		func() Config { c := DefaultConfig(); c.FuncZipfSkew = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultCodeSizeIsPaperScale(t *testing.T) {
	// The paper measures a ~4 MiB code working set.
	got := DefaultConfig().CodeBytes()
	if got < 2<<20 || got > 8<<20 {
		t.Fatalf("default code size %d bytes, want ~4 MiB", got)
	}
}

func TestFetchesStayInCodeSegment(t *testing.T) {
	cfg := testConfig()
	var accs []trace.Access
	prog, _ := buildProgram(t, cfg, func(a trace.Access) { accs = append(accs, a) })
	w := prog.NewWalker(0, 1, nil, nil)
	w.Run(10000)
	if len(accs) == 0 {
		t.Fatal("no fetches emitted")
	}
	for _, a := range accs {
		if a.Seg != trace.Code || a.Kind != trace.Fetch {
			t.Fatalf("non-code access from walker: %+v", a)
		}
		if a.Addr < memsim.CodeBase || a.Addr >= memsim.CodeBase+uint64(cfg.CodeBytes()) {
			t.Fatalf("fetch outside text: 0x%x", a.Addr)
		}
	}
}

func TestInstructionAccounting(t *testing.T) {
	prog, _ := buildProgram(t, testConfig(), nil)
	w := prog.NewWalker(0, 1, nil, nil)
	got := w.Run(5000)
	if got < 5000 {
		t.Fatalf("Run(5000) retired only %d", got)
	}
	if got > 20000 {
		t.Fatalf("Run(5000) overshot wildly: %d", got)
	}
	if w.Instructions != got {
		t.Fatal("cumulative counter mismatch")
	}
}

func TestBranchRate(t *testing.T) {
	prog, _ := buildProgram(t, testConfig(), nil)
	w := prog.NewWalker(0, 1, nil, nil)
	w.Run(50000)
	perInstr := float64(w.Branches) / float64(w.Instructions)
	// Roughly one branch per basic block of ~6 instructions.
	if perInstr < 0.08 || perInstr > 0.35 {
		t.Fatalf("branch rate %v per instruction", perInstr)
	}
}

func TestBranchStreamIsImperfectlyPredictable(t *testing.T) {
	// The paper's key branch characteristic: a real predictor is left with
	// substantial mispredictions (search ~9 branch MPKI), far above SPEC
	// but far below random.
	prog, _ := buildProgram(t, testConfig(), nil)
	pred := cpu.PredictorStats{P: cpu.NewGshare(14)}
	w := prog.NewWalker(0, 1, nil, func(pc uint64, taken bool) {
		pred.Observe(cpu.Branch{PC: pc, Taken: taken})
	})
	w.Run(200000)
	acc := 1 - float64(pred.Mispredicts)/float64(pred.Predictions)
	if acc < 0.7 {
		t.Fatalf("predictor accuracy %v: branch stream too random", acc)
	}
	if acc > 0.99 {
		t.Fatalf("predictor accuracy %v: branch stream too predictable", acc)
	}
}

func TestStackTraffic(t *testing.T) {
	cfg := testConfig()
	var stackAccs int
	space := memsim.NewSpace(func(a trace.Access) {
		if a.Seg == trace.Stack {
			stackAccs++
		}
	})
	code := space.NewArena("code", trace.Code, cfg.CodeBytes())
	prog := New(cfg, code)
	stack := space.ThreadStackArena(3, 1<<16)
	w := prog.NewWalker(3, 1, stack, nil)
	w.Run(20000)
	if stackAccs == 0 {
		t.Fatal("no stack traffic from calls")
	}
}

func TestWalkerDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		prog, _ := buildProgram(t, testConfig(), nil)
		w := prog.NewWalker(0, 42, nil, nil)
		w.Run(30000)
		return w.Instructions, w.Branches
	}
	i1, b1 := run()
	i2, b2 := run()
	if i1 != i2 || b1 != b2 {
		t.Fatal("walker not deterministic")
	}
}

func TestWalkersIndependent(t *testing.T) {
	prog, _ := buildProgram(t, testConfig(), nil)
	w1 := prog.NewWalker(0, 1, nil, nil)
	w2 := prog.NewWalker(1, 2, nil, nil)
	w1.Run(10000)
	w2.Run(10000)
	if w1.Instructions == 0 || w2.Instructions == 0 {
		t.Fatal("walker stalled")
	}
}

func TestRunFuncPinsFootprint(t *testing.T) {
	cfg := testConfig()
	seen := map[uint64]bool{}
	prog, _ := buildProgram(t, cfg, func(a trace.Access) { seen[a.Addr] = true })
	w := prog.NewWalker(0, 1, nil, nil)
	w.RunFunc(5, 20000)
	// A single function's fetch footprint is far below the whole text.
	maxBlocks := cfg.BlocksPerFunc
	if len(seen) > maxBlocks {
		t.Fatalf("RunFunc touched %d distinct addresses, function has %d blocks", len(seen), maxBlocks)
	}
}

// TestCodeWorkingSetOverflowsL2ButFitsL3 is the structural anchor for the
// paper's instruction-side findings: the fetch stream misses substantially
// in a 256 KiB L2 but almost never in a multi-MiB L3.
func TestCodeWorkingSetOverflowsL2ButFitsL3(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumFuncs = 2048 // ~2 MiB text, enough to overflow a 256 KiB cache
	sd := cache.NewStackDist(64)
	space := memsim.NewSpace(func(a trace.Access) { sd.Observe(a) })
	code := space.NewArena("code", trace.Code, cfg.CodeBytes())
	prog := New(cfg, code)
	w := prog.NewWalker(0, 7, nil, nil)
	w.Run(400000)

	l2Rate := sd.Hits(trace.Code, 256<<10) / float64(sd.Accesses(trace.Code))
	if l2Rate > 0.995 {
		t.Fatalf("L2-sized cache captures the code working set (hit %v); want overflow", l2Rate)
	}
	// At L3 size, all misses beyond compulsory (cold) ones must vanish:
	// the steady-state L3 instruction MPKI is ~0 in the paper.
	l3Capacity := sd.Misses(trace.Code, 16<<20) - float64(sd.ColdMisses(trace.Code))
	if frac := l3Capacity / float64(sd.Accesses(trace.Code)); frac > 0.002 {
		t.Fatalf("L3-sized cache still has %.4f capacity-miss rate for code", frac)
	}
}
