package experiments

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure in the paper's evaluation must be present.
	want := []string{
		"table1", "table2",
		"fig2a", "fig2b", "fig2c",
		"fig3", "fig4", "fig5",
		"fig6a", "fig6b", "fig6c",
		"fig7a", "fig7b",
		"fig8a", "fig8b",
		"fig9", "fig10", "fig11",
		"fig13", "fig14",
		"explore",                       // §IV extension: design-space search
		"splitl2",                       // §V extension: split I/D L2 what-if
		"missclass", "bandwidth", "slo", // §II-§IV extensions
		"degraded",       // §II extension: fault-tolerant serving tier
		"fleetprof",      // §II methodology: GWP-style sampled profiling
		"figT1", "figT2", // tiered-memory extension (Mahar et al.)
		"figP1", "figP2", // policy zoo + level predictor (Jaleel; Jalili & Erez)
		"figF1", "figF2", // fleet-scale serving scenarios (event-driven engine)
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("table1")
	if !ok || e.ID != "table1" || e.PaperRef != "Table I" {
		t.Fatalf("ByID(table1) = %+v, %v", e, ok)
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"a", "bee"}, Note: "n"}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	out := tb.Render()
	for _, want := range []string{"T\n", "a    bee", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{Title: "F", XLabel: "x", YLabel: "y"}
	f.Add("s1", 1, 0.5)
	f.Add("s1", 2, 0.75)
	f.Add("s2", 1, 0.25)
	out := f.Render()
	for _, want := range []string{"F", "s1", "s2", "0.5", "0.75", "0.25"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if s := f.Get("s1"); s == nil || len(s.X) != 2 {
		t.Fatal("Get failed")
	}
	if f.Get("zzz") != nil {
		t.Fatal("Get found missing series")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{1: "1", 1.5: "1.5", 0.25: "0.25", 0: "0", -2.5: "-2.5"}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// renderDigests pins sha256(Render()) of every experiment on one shared
// Fast() context in registry order (what `searchsim -fast all` prints).
// Regenerate by pasting the "id": "digest" lines the failing subtests print;
// a change that moves one is a model change and must say so in CHANGES.md.
var renderDigests = map[string]string{
	"explore":   "555b0df5bcd7bf619e34787383177878db556c227bf5c5860cc0c4ea72307bb9",
	"missclass": "f8955e1bb0061b02cc1703b7128761cc92529825d44cda6a7ea0a92ceed82bdb",
	"bandwidth": "7a246c3d64cf488edb4fbb700966e7de298b4fa9943aa85967a3ccddab5eb7fa",
	"slo":       "4aab8179a3b38bfb0b00f098909d8d953fe570ba8164b637c2aba78469e568ee",
	"degraded":  "2dbceabb1454dc883ca43978cbceaaaa8f718791cf0531302cf9762e514a8f80",
	"fig13":     "8ed86fc5bfbf13a1f771d53fdb7e93d92299a021500fe8a926da1d909ce4adbb",
	"fig14":     "f08be1d3d9e7d60710c7c9fd46e65bb4af4bc763e7c93431d31f0392b7b4ed99",
	"fig2a":     "76a0c9b343dd5f881cdca89e71030f06455da8193db1a2576f39b9f3b3e64c01",
	"fig2b":     "0b257863e5211654193abcc61ad7402b48376b39597e2edd64dad2053e49c718",
	"fig2c":     "a133cb6ad8950c4b8a8f617efa128762bb97f7406994271f39631172b665fad0",
	"fig3":      "997fc3a7ac6d075a118cab6520b07a317c8a4da02a25e256b99884da587e2ce2",
	"fig4":      "49c96627555126af7699c2aa4c91e8b746b54fb7dea0b7bb0eb1713a61c48ad3",
	"fig5":      "ae21e436a3a3a86e261095e08497df509fcd356b3946573ae98820389de105cb",
	"fig6a":     "cd3572fce4ba83cf35a22a9c5dde16740890d368c05176b0ea356f2b947907b1",
	"fig6b":     "ac340418db2ca399b3739b70fbd22130bd8c5de4395553d00ad741845cd0e656",
	"fig6c":     "7e03badda67f5ebeb6d4dcf19606a4b5eb3d495d88d84d509e1885d53ab24ac0",
	"fig7a":     "43154c62dd98585f98c5fc43acc5820957f196125bd733724d383f266a83e451",
	"fig7b":     "1342a2559136f44bed6c41df9dfa2cadb12dd0043ebac05adff45938c8176a20",
	"fig8a":     "b1021e115f8a1311feaf8d95ba99e61f7a65980d34b079f2cf278c031c1fe2ad",
	"fig8b":     "c9b2b3c4ef17429fedafacf567af9b9074d395746d251e37c3546fa1db1671a2",
	"fig9":      "7ba99c8d1a8e114a90dd361b8f271c79549dddbabf48e111bd41a33f8ede4f42",
	"fig10":     "22fa325be6ef4e2b41c08a7651f7f612d9e038667b5ddeb957ccb9453c76db25",
	"fig11":     "2ba21dabeb5fc8ae8773f57a1e7f056c9011d67fe76e80882a29dc4a74fcb844",
	"figF1":     "98f468480992519ed916d4302df1a97ffc6489f7532e2ed519b0c977adae8a15",
	"figF2":     "b3bbb0a3b7649c61101c787ba2f8be1d0faa70c2a9ce94edebc4ed4ef37755fb",
	"fleetprof": "13ae3cb49d153fa0780383f23532f04cc10543482e2faf940a93a34d151273b2",
	"figP1":     "6f37e9e2b5554192f6809fcb584879f39338562d1949d0a2a5eabaf14f0b7282",
	"figP2":     "b606c3b6b67a3344a95547842d443384d140a5af99d77be994439e0f260a2ee8",
	"splitl2":   "5feb99b27635892bb1022f657e4399b4b1d1949629a8c62f0548c1c9222c0a9b",
	"table1":    "e5af569547baca55c01e6fd62a0727efe0715262ad6e5e2a0f67ce3a1ee48e5c",
	"table2":    "fc841528714c3fcf0ba77815150f5df101e4f3a4b6e190055191723709ab2d49",
	"figT1":     "c3421b23b56be60a087f1fb73d4567853be884475d6a11d50f7d03ceba70dfd9",
	"figT2":     "13b6b84fa66ceb5a206be6441ad41109643073aeaaf7993ad798910cc5139c97",
}

// TestAllExperimentsFast checks that every registered experiment renders
// without error in the base render and, on amd64, to the pinned bytes (other
// architectures may fuse multiply-adds and move low digits; -short and -race
// render at smoke scale, which is not pinned). This is the end-to-end test
// of the whole reproduction pipeline. It ends on two counts of the base
// context. The suite's trace-storage cost stands guard for what the
// benchmark's peak RSS measures: everything the suite recorded, accesses and
// branch logs together, is held in at most 6 B per access (5.2 when written;
// 24.9 with flat accesses and 16-byte branch records). And the sweeps that
// share the canonical sweep upper (fig14's two L4 sweeps, figT1, figT2,
// figP1's L4 rows, figP2) run it twice, once plain and once keying L1 misses
// for figP2's predictors, and serve all 48 of their tails from those two
// streams (DESIGN.md §15).
func TestAllExperimentsFast(t *testing.T) {
	renderBase()
	for i, e := range All() {
		r := base.renders[i]
		t.Run(e.ID, func(t *testing.T) {
			if r.err != nil {
				t.Fatalf("%s: %v", e.ID, r.err)
			}
			if len(r.out) < 20 {
				t.Fatalf("%s: suspiciously short output:\n%s", e.ID, r.out)
			}
			if runtime.GOARCH != "amd64" || smokeScale() {
				return
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(r.out))); got != renderDigests[e.ID] {
				t.Errorf("render moved:\n\t%q: %q,", e.ID, got)
			}
		})
	}
	if len(renderDigests) != len(All()) {
		t.Errorf("renderDigests pins %d experiments, registry has %d", len(renderDigests), len(All()))
	}
	var accesses, held int64
	for _, st := range base.stores {
		accesses += st.Accesses
		held += st.StoredBytes + st.BranchBytes
	}
	if accesses == 0 || held > 6*accesses {
		t.Errorf("the suite holds %d recorded accesses in %d bytes (%.1f B/access), want at most 6 B/access",
			accesses, held, float64(held)/float64(max(accesses, 1)))
	}
	var tails, hits []int64
	for _, s := range base.streams {
		tails, hits = append(tails, s.Tails), append(hits, s.Hits)
		if s.Runner != "s1-leaf-sweep" {
			t.Errorf("stream over %q, want the sweep recording", s.Runner)
		}
	}
	if fmt.Sprint(tails, hits) != "[11 37] [0 5]" {
		t.Errorf("L1–L3 passes serving %v tails with %v memo hits, want [11 37] with [0 5]: %+v", tails, hits, base.streams)
	}
}

func TestTable2Exact(t *testing.T) {
	ctx := NewContext(Fast())
	res, err := mustByID(t, "table2").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	// Table II attributes, verbatim from the paper.
	for _, want := range []string{
		"Intel Haswell", "IBM POWER8", "18", "12", "64 B", "128 B",
		"32 KiB", "256 KiB", "512 KiB", "45 MiB", "96 MiB",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

// mustByID returns the registered experiment id, or fails the test.
func mustByID(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	return e
}

func TestFig2bAnchors(t *testing.T) {
	ctx := NewContext(Fast())
	res, err := mustByID(t, "fig2b").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fig := res.(*Figure)
	p1 := fig.Get("PLT1 (Haswell)")
	if p1 == nil || p1.Y[0] < 1.3 || p1.Y[0] > 1.45 {
		t.Fatalf("PLT1 SMT-2 = %v, want ~1.37", p1)
	}
	p2 := fig.Get("PLT2 (POWER8)")
	if p2 == nil || len(p2.Y) != 3 {
		t.Fatal("PLT2 series incomplete")
	}
	if p2.Y[2] < 3.0 || p2.Y[2] > 3.5 {
		t.Fatalf("PLT2 SMT-8 = %v, want ~3.24", p2.Y[2])
	}
}
