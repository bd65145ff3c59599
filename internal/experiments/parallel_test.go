package experiments

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSweepWorkers pins the worker-count policy: serial unless Parallel,
// never a single worker in parallel mode (the concurrent paths must be
// exercised even on one-core hosts), capped by maxWorkers and point count.
func TestSweepWorkers(t *testing.T) {
	serial := NewContext(Options{Shrink: 1, Budget: 1, Threads: 1})
	if w := serial.sweepWorkers(10, 0); w != 1 {
		t.Errorf("serial context got %d workers, want 1", w)
	}
	par := NewContext(Options{Shrink: 1, Budget: 1, Threads: 1, Parallel: true})
	if w := par.sweepWorkers(10, 0); w < 2 {
		t.Errorf("parallel context got %d workers, want >= 2", w)
	}
	if w := par.sweepWorkers(1, 0); w != 1 {
		t.Errorf("1-point sweep got %d workers, want 1", w)
	}
	if w := par.sweepWorkers(10, 2); w != 2 {
		t.Errorf("capped sweep got %d workers, want 2", w)
	}
	if w := par.sweepWorkers(3, 64); w > 3 {
		t.Errorf("3-point sweep got %d workers, want <= 3", w)
	}
}

// TestRunPointsOrdered checks results land in index order regardless of
// scheduling, in both modes.
func TestRunPointsOrdered(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		c := NewContext(Options{Shrink: 1, Budget: 1, Threads: 1, Parallel: parallel})
		got := runPoints(c, 0, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%v: point %d = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

// TestRunPointsPanicDeterministic checks a panicking point surfaces as a
// panic naming the lowest failing index after all points finish.
func TestRunPointsPanicDeterministic(t *testing.T) {
	c := NewContext(Options{Shrink: 1, Budget: 1, Threads: 1, Parallel: true})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("runPoints swallowed the point panic")
		}
		if s, ok := r.(string); !ok || !strings.HasPrefix(s, "sweep point 3:") {
			t.Fatalf("panic %v, want the lowest failing index (3)", r)
		}
	}()
	runPoints(c, 0, 8, func(i int) int {
		if i >= 3 {
			panic("boom")
		}
		return i
	})
}

// TestCurveSingleFlight pins the memo's two halves: any number of callers of
// one key share one compute, and computes of different keys overlap — each of
// the two below finishes only once the other has started, which a lock held
// across compute would turn into a deadlock.
func TestCurveSingleFlight(t *testing.T) {
	c := NewContext(Options{Shrink: 1, Budget: 1, Threads: 1})
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := c.curve(curveKey{kind: "once"}, func() any {
				computes.Add(1)
				return 41
			})
			if v != 41 {
				t.Errorf("curve returned %v, want the computed 41", v)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("16 callers of one key ran compute %d times, want 1", n)
	}

	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	done := make(chan struct{})
	for i := range started {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.curve(curveKey{kind: "pair", arg: int64(i)}, func() any {
				close(started[i])
				select {
				case <-started[1-i]:
				case <-done:
				}
				return i
			})
		}()
	}
	overlapped := make(chan struct{})
	go func() {
		wg.Wait()
		close(overlapped)
	}()
	select {
	case <-overlapped:
	case <-time.After(30 * time.Second):
		t.Error("computes of two keys did not overlap: one waited for the other to return")
		close(done)
		wg.Wait()
	}
}

// TestConcurrentExperimentsShareOneContext races three experiments on one
// Context, each touching its runner cache and index memo: fig6b and fig13
// record on the shared sweep runner, fig5 builds private runners from the
// same index image on sweep workers — the scenario the race detector must
// bless. Outputs are checked for self-consistency, not byte-compared: the
// experiments interleave new recordings, which byte-identical output
// excludes.
func TestConcurrentExperimentsShareOneContext(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment run is slow in -short mode")
	}
	opts := Fast()
	opts.Seed = 7
	builds := countIndexBuilds(&opts)
	ctx := NewContext(opts)

	var wg sync.WaitGroup
	for _, id := range []string{"fig6b", "fig13", "fig5"} {
		e := mustByID(t, id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Run(ctx)
			if err != nil {
				t.Errorf("%s: %v", id, err)
				return
			}
			if res.Render() == "" {
				t.Errorf("%s rendered empty output", id)
			}
		}()
	}
	wg.Wait()
	if n := builds(); n != 1 {
		t.Errorf("%d index builds across three concurrent experiments on one corpus, want 1", n)
	}
}

// countIndexBuilds hooks opts.Logf and returns a reader of how many index
// images contexts made from opts have built so far.
func countIndexBuilds(opts *Options) func() int {
	var mu sync.Mutex
	n := 0
	opts.Logf = func(format string, _ ...any) {
		if strings.HasPrefix(format, "building index") {
			mu.Lock()
			n++
			mu.Unlock()
		}
	}
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		return n
	}
}

// TestOneIndexBuildPerCorpus: within one context the experiments that build
// private runners (fig4, fig5) and the ones that go through Leaf()/Sweep()
// share one image per distinct corpus, and fig8a/fig8b share one CAT sweep.
func TestOneIndexBuildPerCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment run is slow in -short mode")
	}
	opts := Fast()
	builds := countIndexBuilds(&opts)
	c := NewContext(opts)
	run := func(id string) Result {
		t.Helper()
		e, _ := ByID(id)
		res, err := e.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return res
	}
	run("fig4")
	run("fig5")
	run("fig8a")
	// fig4's four points and fig8a's Leaf() use the S1-leaf corpus; fig5's
	// points use the S1-leaf-sweep corpus.
	if n := builds(); n != 2 {
		t.Errorf("%d index builds across fig4 fig5 fig8a, want 2", n)
	}

	// fig8a left its sweep in the context; fig8b must plot that, not measure
	// again — shown by planting a sweep no measurement could produce.
	planted := c.curve(curveKey{kind: "catsweep"}, func() any {
		t.Error("fig8a left no catSweep in the context")
		return nil
	})
	if sw, ok := planted.([3][]float64); !ok || len(sw[0]) != 10 {
		t.Fatalf("fig8a's memoized catSweep is not a 10-point sweep: %v", planted)
	}
	c.curves.m[curveKey{kind: "catsweep"}].v = [3][]float64{{0.5}, {123}, {-7}}
	ipc := run("fig8b").(*Figure).Get("IPC")
	if len(ipc.X) != 1 || ipc.X[0] != 123 || ipc.Y[0] != -7 {
		t.Errorf("fig8b re-ran the CAT sweep instead of using the context's: x=%v y=%v", ipc.X, ipc.Y)
	}
	if n := builds(); n != 2 {
		t.Errorf("%d index builds after fig8b, want 2", n)
	}
}

// TestMibAdaptiveUnits pins the adaptive rendering that replaced the old
// b>>20 truncation (which rendered every sub-MiB value as "0").
func TestMibAdaptiveUnits(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0 B"},
		{64, "64 B"},
		{1023, "1023 B"},
		{1 << 10, "1 KiB"},
		{1536, "1.5 KiB"},
		{256 << 10, "256 KiB"},
		{1 << 20, "1 MiB"},
		{23 << 20, "23 MiB"},
		{1 << 30, "1 GiB"},
		{3 << 29, "1.5 GiB"},
	}
	for _, c := range cases {
		if got := mib(c.in); got != c.want {
			t.Errorf("mib(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestFigureXFormatGolden renders a figure with a byte-count x-axis and pins
// the exact output: block sizes must read as units, not truncated zeros.
func TestFigureXFormatGolden(t *testing.T) {
	fig := &Figure{
		Title:  "block sweep",
		XLabel: "block size", YLabel: "MPKI",
		XFormat: func(x float64) string { return mib(int64(x)) },
	}
	fig.Add("L2", 64, 1.5)
	fig.Add("L2", 1024, 0.75)
	fig.Add("L2", 2<<20, 0.5)
	got := fig.Render()
	want := "block sweep\n" +
		"(y: MPKI)\n" +
		"block size  L2  \n" +
		"----------  ----\n" +
		"64 B        1.5 \n" +
		"1 KiB       0.75\n" +
		"2 MiB       0.5 \n"
	if got != want {
		t.Errorf("rendered figure:\n%s\nwant:\n%s", got, want)
	}
}
