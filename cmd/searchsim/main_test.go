package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// searchsimBin is the command under test, built once by TestMain.
var searchsimBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "searchsim-test")
	if err != nil {
		panic(err)
	}
	searchsimBin = filepath.Join(dir, "searchsim")
	if out, err := exec.Command("go", "build", "-buildvcs=false", "-o", searchsimBin, ".").CombinedOutput(); err != nil {
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestProfileFlagMatrix runs one experiment under every combination of
// -cpuprofile and -memprofile: each requested profile is a non-empty file,
// and stdout and the -trace/-metrics exports are byte-identical to the run
// without profiling.
func TestProfileFlagMatrix(t *testing.T) {
	var want [3][]byte // stdout, trace, metrics of the unprofiled run
	for _, tc := range []struct {
		name     string
		cpu, mem bool
	}{{"none", false, false}, {"cpu", true, false}, {"mem", false, true}, {"both", true, true}} {
		dir := t.TempDir()
		in := func(name string) string { return filepath.Join(dir, name) }
		args := []string{"-fast", "-seed", "42", "-trace", in("t.json"), "-metrics", in("m.json")}
		if tc.cpu {
			args = append(args, "-cpuprofile", in("cpu.pprof"))
		}
		if tc.mem {
			args = append(args, "-memprofile", in("mem.pprof"))
		}
		cmd := exec.Command(searchsimBin, append(args, "degraded")...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, stderr.Bytes())
		}
		got := [3][]byte{stdout, readFile(t, in("t.json")), readFile(t, in("m.json"))}
		if tc.name == "none" {
			want = got
		}
		for i, what := range []string{"stdout", "-trace export", "-metrics export"} {
			if len(got[i]) == 0 || !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: %s is empty or differs from the unprofiled run", tc.name, what)
			}
		}
		for _, p := range []struct {
			name  string
			asked bool
		}{{"cpu.pprof", tc.cpu}, {"mem.pprof", tc.mem}} {
			st, err := os.Stat(in(p.name))
			if p.asked && (err != nil || st.Size() == 0) {
				t.Errorf("%s: %s missing or empty (%v)", tc.name, p.name, err)
			}
			if !p.asked && err == nil {
				t.Errorf("%s: %s written without its flag", tc.name, p.name)
			}
		}
	}
}

// TestVerboseTimingLine: -v ends each experiment with its wall time, the
// process CPU time it used and their ratio on stderr, and leaves stdout and
// both exports byte-identical to the quiet run.
func TestVerboseTimingLine(t *testing.T) {
	var outs [2][3][]byte
	var stderr bytes.Buffer
	for i, v := range []bool{false, true} {
		dir := t.TempDir()
		args := []string{"-fast", "-seed", "42", "-trace", filepath.Join(dir, "t.json"), "-metrics", filepath.Join(dir, "m.json")}
		if v {
			args = append(args, "-v")
		}
		cmd := exec.Command(searchsimBin, append(args, "degraded", "table2")...)
		stderr.Reset()
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("-v=%v: %v\n%s", v, err, stderr.Bytes())
		}
		outs[i] = [3][]byte{stdout, readFile(t, filepath.Join(dir, "t.json")), readFile(t, filepath.Join(dir, "m.json"))}
	}
	for i, what := range []string{"stdout", "-trace export", "-metrics export"} {
		if len(outs[1][i]) == 0 || !bytes.Equal(outs[0][i], outs[1][i]) {
			t.Errorf("%s is empty or differs between the quiet and the -v run", what)
		}
	}
	for _, id := range []string{"degraded", "table2"} {
		line := regexp.MustCompile(`(?m)^# ` + id + ` took \S+ \(cpu \S+, \d+\.\d\d cores\)$`)
		if !line.Match(stderr.Bytes()) {
			t.Errorf("-v stderr has no timing line for %s:\n%s", id, stderr.Bytes())
		}
	}
}

// TestVerboseStreamFooter pins the -v footer's "# post-L3 streams:" block
// beside "# trace stores:": figT1 runs its all-near baseline live, records
// the sweep upper's stream for its grid, and figT2 replays that stream — one
// line, one L1–L3 pass, 15 tails, one memo hit. Before them the footer
// counts the measured runs that split their L1–L3 by set, which depends on
// the host. The footer is stderr only: stdout and both exports match the
// quiet run.
func TestVerboseStreamFooter(t *testing.T) {
	var outs [2][3][]byte
	var stderr bytes.Buffer
	for i, v := range []bool{false, true} {
		dir := t.TempDir()
		args := []string{"-fast", "-shrink", "64", "-budget", "100000", "-seed", "42",
			"-trace", filepath.Join(dir, "t.json"), "-metrics", filepath.Join(dir, "m.json")}
		if v {
			args = append(args, "-v")
		}
		cmd := exec.Command(searchsimBin, append(args, "figT1", "figT2")...)
		stderr.Reset()
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("-v=%v: %v\n%s", v, err, stderr.Bytes())
		}
		outs[i] = [3][]byte{stdout, readFile(t, filepath.Join(dir, "t.json")), readFile(t, filepath.Join(dir, "m.json"))}
	}
	for i, what := range []string{"stdout", "-trace export", "-metrics export"} {
		if len(outs[1][i]) == 0 || !bytes.Equal(outs[0][i], outs[1][i]) {
			t.Errorf("%s is empty or differs between the quiet and the -v run", what)
		}
	}
	block := regexp.MustCompile(`(?m)^# partitioned \d+ of [1-9]\d* measurements\n# trace stores:\n(?:#   .*\n)+?# post-L3 streams:\n((?:#   s1-leaf-sweep .*\n)*)#   process_`)
	m := block.FindSubmatch(stderr.Bytes())
	if m == nil {
		t.Fatalf("-v stderr has no split count, trace stores and post-L3 streams block:\n%s", stderr.Bytes())
	}
	line := regexp.MustCompile(`^#   s1-leaf-sweep    \d+ cores x \d+ SMT, L3 \d+ KiB \d+-way LRU; \d+ threads, budget \d+, seed 42: \d+ events in \d+ bytes, 15 tails served, 1 memo hits\n$`)
	if !line.Match(m[1]) {
		t.Errorf("post-L3 streams block is not one sweep-upper line serving 15 tails with 1 memo hit:\n%s", m[1])
	}
}

// TestProfilesWrittenOnErrorExit checks the other ways out: a run that ends
// in a usage error still leaves both profiles behind with its exit code
// intact, and a profile path that cannot be created is itself an error.
func TestProfilesWrittenOnErrorExit(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	out, err := exec.Command(searchsimBin, "-cpuprofile", cpu, "-memprofile", mem, "no-such-experiment").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("unknown experiment: err = %v, want exit status 2\n%s", err, out)
	}
	for _, p := range []string{cpu, mem} {
		if len(readFile(t, p)) == 0 {
			t.Errorf("%s is empty after an exit-2 run", filepath.Base(p))
		}
	}

	out, err = exec.Command(searchsimBin, "-fast", "-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof"), "degraded").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !bytes.Contains(out, []byte("-cpuprofile")) {
		t.Fatalf("uncreatable profile path: err = %v, want exit status 1 naming the flag\n%s", err, out)
	}
}

// TestBadInvocationsFail: every misuse exits 2 with a message naming what
// was wrong, before any experiment runs. The nine grid-restricting flags
// removed with their Options fields, and -trace-compress (recordings are
// always compressed), must stay gone.
func TestBadInvocationsFail(t *testing.T) {
	type badCase struct {
		args   []string
		stderr string
	}
	cases := []badCase{
		{nil, "usage: searchsim"},
		{[]string{"-fast", "no-such-experiment"}, `unknown experiment "no-such-experiment"`},
		{[]string{"-fast", "-trace-spill", filepath.Join(t.TempDir(), "missing"), "fig6a"}, "-trace-spill: "},
		{[]string{"-fast", "-fleet-clients", "-1", "table2"}, "-fleet-clients must be non-negative"},
		{[]string{"-fast", "-budget", "-5", "table2"}, "-budget must be non-negative"},
		{[]string{"-fast", "-shrink", "-3", "table2"}, "-shrink must be non-negative"},
		{[]string{"-fast", "-threads", "-1", "table2"}, "-threads must be in 0..16"},
		{[]string{"-fast", "-threads", "17", "table2"}, "-threads must be in 0..16"},
		{[]string{"-fast", "-threads", "32", "fig6b"}, "-threads must be in 0..16"},
	}
	for _, gone := range []string{
		"-tier-near", "-tier-policy", "-tier-epoch", "-policy", "-policy-level",
		"-pred-bits", "-pred-conf", "-fleet-scenario", "-trace-block", "-trace-compress",
	} {
		cases = append(cases, badCase{[]string{"-fast", gone, "1", "table2"}, "flag provided but not defined: " + gone})
	}
	for _, tc := range cases {
		got, err := exec.Command(searchsimBin, tc.args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2\n%s", tc.args, err, got)
		}
		if !bytes.Contains(got, []byte(tc.stderr)) || bytes.Contains(got, []byte("goroutine ")) {
			t.Errorf("%v: want a message containing %q and no goroutine dump, got:\n%s", tc.args, tc.stderr, got)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
