package experiments

import (
	"searchmem/internal/memsim"
	"searchmem/internal/trace"
	"searchmem/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "fig3",
		Title:    "Top-Down breakdown of an S1 leaf on PLT1",
		PaperRef: "Figure 3",
		Run:      runFig3,
	})
	register(Experiment{
		ID:       "fig4",
		Title:    "Allocated memory footprint as cores scale",
		PaperRef: "Figure 4",
		Run:      runFig4,
	})
	register(Experiment{
		ID:       "fig5",
		Title:    "Accessed working set for heap and shard as threads scale",
		PaperRef: "Figure 5",
		Run:      runFig5,
	})
}

func runFig3(c *Context) (Result, error) {
	m := leafMetrics(c)
	t := &Table{
		Title:   "Figure 3: Top-Down execution-slot breakdown (S1 leaf, PLT1)",
		Headers: []string{"category", "reproduced", "paper"},
		Note:    "slots as % of issue slots; paper values from Figure 3",
	}
	bd := m.Breakdown
	rows := []struct {
		name  string
		got   float64
		paper string
	}{
		{"Retiring", bd.Retiring, "32.0%"},
		{"Bad Speculation", bd.BadSpec, "15.4%"},
		{"FrontEnd: Latency", bd.FELatency, "13.8%"},
		{"FrontEnd: BW", bd.FEBandwidth, "9.7%"},
		{"BackEnd: Core", bd.BECore, "8.5%"},
		{"BackEnd: Memory", bd.BEMemory, "20.5%"},
	}
	for _, r := range rows {
		t.AddRow(r.name, pct(r.got), r.paper)
	}
	return t, nil
}

// runFig4 measures the allocated footprint per segment as the number of
// active cores (sessions) scales: per-thread state (accumulators, stacks)
// grows linearly but the shared index structures dominate, so the heap
// grows sublinearly — the paper's key observation.
func runFig4(c *Context) (Result, error) {
	o := c.Opts
	fig := &Figure{
		Title:  "Figure 4: allocated footprint vs cores (MiB, code/stack/heap)",
		XLabel: "cores", YLabel: "footprint MiB",
		Note: "shard (not shown) dominates at 100s of GiB-equivalent; heap ~10x code/stack and sublinear",
	}
	coreCounts := []int{6, 16, 26, 36}
	// Each point drives a private engine, so points are independent. They
	// differ only in MaxSessions, so all of them (and Leaf()) copy one
	// memoized index image; the worker cap bounds how many points' arenas
	// are allocated at once.
	spaces := runPoints(c, 2, len(coreCounts), func(i int) *memsim.Space {
		cores := coreCounts[i]
		// A fresh workload instance sized for this many sessions.
		wl := workload.S1Leaf(o.Shrink)
		wl.Engine.MaxSessions = cores + 1
		r := c.buildRunner(wl)
		// Activate one session per core (warm run binds them).
		r.Run(cores, int64(cores)*20_000, o.Seed, workload.Sinks{})
		return r.Space()
	})
	for i, space := range spaces {
		cores := coreCounts[i]
		fig.Add("code", float64(cores), float64(space.FootprintBytes(trace.Code))/(1<<20))
		fig.Add("stack", float64(cores), float64(space.FootprintBytes(trace.Stack))/(1<<20))
		fig.Add("heap", float64(cores), float64(space.FootprintBytes(trace.Heap))/(1<<20))
	}
	return fig, nil
}

// runFig5 measures the accessed working set per segment as threads scale on
// the sweep profile, in paper-equivalent GiB.
func runFig5(c *Context) (Result, error) {
	o := c.Opts
	fig := &Figure{
		Title:  "Figure 5: accessed working set vs threads (paper-equivalent GiB)",
		XLabel: "threads", YLabel: "working set GiB",
		Note: "heap grows sublinearly toward ~1 GiB (shared structures); shard grows with threads",
	}
	var threadCounts []int
	for _, threads := range []int{1, 2, 4, 8, 16} {
		if threads > o.Threads*2 {
			break
		}
		threadCounts = append(threadCounts, threads)
	}
	// Each point drives a private engine copied from the image Sweep() uses;
	// the worker cap bounds how many points' arenas are allocated at once.
	sets := runPoints(c, 2, len(threadCounts), func(i int) *trace.WorkingSet {
		threads := threadCounts[i]
		r := c.buildRunner(workload.S1LeafSweep(o.Shrink))
		ws := trace.NewWorkingSet(64)
		budget := o.Budget / 2 * int64(threads)
		r.Run(threads, budget, o.Seed, workload.Sinks{Access: ws.Observe})
		return ws
	})
	for i, ws := range sets {
		threads := threadCounts[i]
		fig.Add("heap", float64(threads),
			float64(workload.PaperUnits(int64(ws.Bytes(trace.Heap))))/(1<<30))
		fig.Add("shard", float64(threads),
			float64(workload.PaperUnits(int64(ws.Bytes(trace.Shard))))/(1<<30))
	}
	return fig, nil
}
