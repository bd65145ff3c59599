package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// cachesimBin is the command under test and leafTrace the s1-leaf trace it
// replays (written by cmd/tracegen at -shrink 64); TestMain builds both once.
var cachesimBin, leafTrace string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cachesim-test")
	if err != nil {
		panic(err)
	}
	cachesimBin = filepath.Join(dir, "cachesim")
	tracegenBin := filepath.Join(dir, "tracegen")
	for bin, pkg := range map[string]string{cachesimBin: ".", tracegenBin: "../tracegen"} {
		if out, err := exec.Command("go", "build", "-buildvcs=false", "-o", bin, pkg).CombinedOutput(); err != nil {
			panic("go build " + pkg + ": " + err.Error() + "\n" + string(out))
		}
	}
	leafTrace = filepath.Join(dir, "leaf.smtr")
	if out, err := exec.Command(tracegenBin, "-profile", "s1-leaf", "-shrink", "64", "-o", leafTrace).CombinedOutput(); err != nil {
		panic("tracegen: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestReplayGoldens pins cachesim's stdout over the leaf trace for the flag
// combinations that select different simulator paths. The goldens are what
// the binary printed at commit 3db34e2, and ways.golden what it printed at
// fb6e940, while a CAT partition still restricted fills to the first ways
// of a 20-way L3.
func TestReplayGoldens(t *testing.T) {
	for name, args := range map[string][]string{
		"default":      nil,
		"l4":           {"-l4", "64", "-scale", "64"},
		"predict":      {"-predict"},
		"drrip":        {"-policy", "drrip", "-seed", "7"},
		"noninclusive": {"-inclusive=false"},
		"ways":         {"-ways", "6"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(cachesimBin, append([]string{"-trace", leafTrace}, args...)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		got, err := cmd.Output()
		if err != nil {
			t.Errorf("%s: %v\n%s", name, err, stderr.String())
			continue
		}
		if string(got) != string(want) {
			t.Errorf("%s: stdout differs from testdata/%s.golden:\n%s", name, name, got)
		}
	}
}

// TestBadFlagsFail: every out-of-range number exits 2 with one line naming
// the flag, before any capacity arithmetic can divide by it.
func TestBadFlagsFail(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{nil, "usage: cachesim -trace <file> [flags]"},
		{[]string{"-scale", "0"}, "cachesim: -scale must be at least 1, got 0"},
		{[]string{"-block", "0"}, "cachesim: -block must be a power of two, at least 8, got 0"},
		{[]string{"-block", "48"}, "cachesim: -block must be a power of two, at least 8, got 48"},
		{[]string{"-block", "4"}, "cachesim: -block must be a power of two, at least 8, got 4"},
		{[]string{"-l1", "0"}, "cachesim: -l1 must be positive, got 0"},
		{[]string{"-l2", "-1"}, "cachesim: -l2 must be positive, got -1"},
		{[]string{"-l3", "0"}, "cachesim: -l3 must be positive, got 0"},
		{[]string{"-l4", "-1"}, "cachesim: -l4 must be non-negative, got -1"},
		{[]string{"-cores", "0"}, "cachesim: -cores must be in 1..256, got 0"},
		{[]string{"-smt", "0"}, "cachesim: -smt must be in 1..256, got 0"},
		{[]string{"-cores", "64", "-smt", "8"}, "cachesim: -cores x -smt must be at most 256 hardware threads, got 512"},
		{[]string{"-instructions", "-5"}, "cachesim: -instructions must be non-negative, got -5"},
		{[]string{"-ways", "30"}, "cachesim: -ways must be in 0..20, got 30"},
		{[]string{"-ways", "-1"}, "cachesim: -ways must be in 0..20, got -1"},
		// Scaling to a size that is no whole number of sets keeps the 20 ways.
		{[]string{"-scale", "7", "-ways", "21"}, "cachesim: -ways must be in 0..20, got 21"},
		// A capacity whose byte count overflows int64.
		{[]string{"-l1", "9007199254740992"}, "cachesim: -l1 must be at most 9007199254740991, got 9007199254740992"},
		{[]string{"-l2", "9007199254740992"}, "cachesim: -l2 must be at most 9007199254740991, got 9007199254740992"},
		{[]string{"-l3", "9000000000000"}, "cachesim: -l3 must be at most 8796093022207, got 9000000000000"},
		{[]string{"-l4", "8796093022208"}, "cachesim: -l4 must be at most 8796093022207, got 8796093022208"},
		{[]string{"-policy", "mru"}, `-policy: cache: unknown replacement policy "mru"`},
		{[]string{"-policy", "fifo"}, `-policy: cache: unknown replacement policy "fifo" (valid: LRU, SRRIP, BRRIP, DRRIP)`},
		{[]string{"-policy", "random"}, `-policy: cache: unknown replacement policy "random" (valid: LRU, SRRIP, BRRIP, DRRIP)`},
	} {
		args := tc.args
		if args != nil {
			args = append([]string{"-trace", leafTrace}, args...)
		}
		got, err := exec.Command(cachesimBin, args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2\n%s", tc.args, err, got)
		}
		if !strings.Contains(string(got), tc.stderr) || strings.Count(string(got), "\n") != 1 {
			t.Errorf("%v: want one line containing %q, got:\n%s", tc.args, tc.stderr, got)
		}
	}
}

// TestBadTraceFilesFail: a missing, truncated or corrupt trace exits 1 with
// the reader's error (ErrBadTrace for malformed bytes, found at open or as
// the replay decodes a block) and never panics.
func TestBadTraceFilesFail(t *testing.T) {
	data, err := os.ReadFile(leafTrace)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// patched copies the trace with b written at off (from the end when
	// negative). The last block's table entry is at -16 (access count).
	patched := func(off int, b ...byte) []byte {
		if off < 0 {
			off += len(data)
		}
		out := append([]byte(nil), data...)
		copy(out[off:], b)
		return out
	}
	for _, tc := range []struct {
		name   string
		data   []byte
		stderr string
	}{
		{"missing", nil, "no such file or directory"},
		{"empty", []byte{}, "trace: malformed trace file: short file (0 bytes)"},
		{"bad magic", patched(0, 'X'), "trace: malformed trace file: bad magic"},
		{"version 1", patched(4, 1), "trace: malformed trace file: unsupported version 1"},
		{"truncated", data[:len(data)-1], "trace: malformed trace file: bad trailer"},
		{"table claims 2^31 accesses", patched(-16, 0, 0, 0, 0x80), "trace: malformed trace file: block 84 holds 2147483648 accesses"},
		{"kind 3 in the first block", patched(12, 0xc0), "trace: malformed trace file: invalid kind 3"},
		// A heap read of thread 0 whose size varint encodes 1<<20.
		{"oversize size field", patched(12, 0x50, 0x80, 0x80, 0x40), "trace: malformed trace file: bad size at record 0"},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".smtr")
		if tc.data != nil {
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := exec.Command(cachesimBin, "-trace", path).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("%s: err = %v, want exit status 1\n%s", tc.name, err, got)
		}
		if !strings.Contains(string(got), tc.stderr) || strings.Contains(string(got), "panic") {
			t.Errorf("%s: output lacks %q (or panicked):\n%s", tc.name, tc.stderr, got)
		}
	}
}
