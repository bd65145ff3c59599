package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"searchmem/internal/det"
)

// TestMain moves to the module root, where the harness runs: its paths
// (bench/out, BENCHMARK.json) are relative to it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// namedLayers are the per-layer metrics of the README's table, by the
// workload whose traced run owns them (experiments.<id>_s is added per id).
var namedLayers = map[string][]string{
	"replay_deep": {
		"search.build_s",
		"workload.synth_ns_per_access", "workload.synth_accesses", "workload.record_flat_ns_per_access",
		"trace.decode_flat_ns_per_access",
		"cache.new_ms", "cache.deep_ns_per_access", "cache.allocs_per_access",
		"cache.deep_l1_hit_frac", "cache.deep_l2_hit_frac", "cache.deep_l3_hit_frac", "cache.deep_l4_hit_frac", "cache.deep_mem_per_kaccess",
		"mem.near_ns_per_txn", "mem.tiered_ns_per_txn", "mem.txns", "mem.row_hit_frac", "mem.far_read_frac",
	},
	"replay_resident": {
		"workload.synthetic_ns_per_access", "workload.record_spilled_ns_per_access", "workload.replay_ns_per_access", "workload.measure_residual_frac",
		"trace.encode_ns_per_access", "trace.bytes_per_access", "trace.decode_compressed_ns_per_access", "trace.decode_spilled_ns_per_access",
		"cache.resident_ns_per_access", "cache.resident_l1_hit_frac",
		"cpu.branch_ns_per_branch", "cpu.branches_per_kaccess",
	},
	"fleet_day": {
		"serving.new_cluster_ms", "serving.leaf_ns_per_search",
		"serving.closed_1_ns_per_event", "serving.closed_10k_ns_per_event", "serving.open_1m_ns_per_event",
		"serving.events", "serving.cache_hit_frac", "serving.partial_frac", "serving.peak_inflight", "serving.bytes_per_client",
		"serving.generator_lateness_ns",
	},
	"paper_suite": {"experiments.render_s", "experiments.residual_s", "experiments.parallel_speedup"},
}

// TestSmoke runs every workload in-process at a tiny size: each emits the
// end-to-end metrics, the shared per-layer metrics and exactly its own named
// ones, all finite, and every check holds — among them that the traced,
// hand-driven counters equal the untraced results. It keeps the benchmark
// compiling and correct when a layer's API moves.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		res := runSmoke(w, 1)
		for _, f := range res.Failures {
			t.Errorf("%s: failed check: %s", w.name, f)
		}
		if res.Attempted == 0 {
			t.Errorf("%s: no check was attempted", w.name)
		}
		for _, name := range []string{"setup_s", "sim_ops_per_s", "peak_rss_mib"} {
			if v := res.EndToEnd[name].Median; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive finite number", w.name, name, v)
			}
		}
		want := append(contractLayers(), namedLayers[w.name]...)
		if w.name == "paper_suite" {
			for _, id := range newSuiteBench(true).ids {
				want = append(want, "experiments."+id+"_s")
			}
		}
		slices.Sort(want)
		if got := det.SortedKeys(res.Layers); !slices.Equal(got, want) {
			t.Errorf("%s: per-layer metrics\n got %v\nwant %v", w.name, got, want)
		}
		for name, m := range res.Layers {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
				t.Errorf("%s: %s = %v %q, want a finite value with a unit", w.name, name, m.Value, m.Unit)
			}
		}
		// Every traced nanosecond is in exactly one budget row.
		share := map[string]float64{}
		for _, row := range res.Budget {
			share[row.Phase] += row.Share
		}
		for phase, s := range share {
			if math.Abs(s-1) > 1e-9 {
				t.Errorf("%s: budget rows of phase %s sum to %v of its wall, want 1", w.name, phase, s)
			}
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to what the harness emits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name string }
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		var out []string
		for _, n := range ns {
			out = append(out, n.Name)
		}
		slices.Sort(out)
		return out
	}
	var wantWorkloads []string
	for _, w := range workloads {
		wantWorkloads = append(wantWorkloads, w.name)
	}
	slices.Sort(wantWorkloads)
	wantLayers := contractLayers()
	slices.Sort(wantLayers)
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(b.Workloads), wantWorkloads},
		{"end_to_end", names(b.EndToEnd), det.SortedKeys(endToEnd(nil))},
		{"per_layer", names(b.PerLayer), wantLayers},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %s, the harness emits %s", c.what, strings.Join(c.got, " "), strings.Join(c.want, " "))
		}
	}
}

// TestQuartiles pins the spread to Python's statistics.quantiles(v, n=4),
// which the benchmark's acceptance rule is written in.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, med, q3)
	}
}
