package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// tracegenBin is the command under test, built once by TestMain.
var tracegenBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tracegen-test")
	if err != nil {
		panic(err)
	}
	tracegenBin = filepath.Join(dir, "tracegen")
	if out, err := exec.Command("go", "build", "-buildvcs=false", "-o", tracegenBin, ".").CombinedOutput(); err != nil {
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestListProfiles(t *testing.T) {
	out, err := exec.Command(tracegenBin, "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	want := "cloudsuite\ngobmk\nmcf\nomnetpp\nperlbench\ns1-leaf\ns1-leaf-sweep\ns1-root\ns2-leaf\ns3-leaf\n"
	if string(out) != want {
		t.Errorf("-list printed\n%s\nwant\n%s", out, want)
	}
}

// TestBadInvocationsFail: an unknown profile or flag, or a number the
// workload builder cannot take, exits 2 with a message naming the problem
// and writes no trace; an output path that cannot be created exits 1.
func TestBadInvocationsFail(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.smtr")
	for _, tc := range []struct {
		name   string
		args   []string
		exit   int
		stderr string
	}{
		{"unknown profile", []string{"-profile", "s9-leaf", "-o", out}, 2, `unknown profile "s9-leaf" (try -list)`},
		{"unknown flag", []string{"-no-such-flag", "-o", out}, 2, "flag provided but not defined: -no-such-flag"},
		{"malformed value", []string{"-threads", "many", "-o", out}, 2, "invalid value"},
		{"zero threads", []string{"-threads", "0", "-o", out}, 2, "tracegen: -threads must be in 1..16, got 0"},
		{"threads past the codec's 4 bits", []string{"-threads", "17", "-o", out}, 2, "tracegen: -threads must be in 1..16, got 17"},
		{"threads past uint8", []string{"-threads", "300", "-o", out}, 2, "tracegen: -threads must be in 1..16, got 300"},
		{"zero shrink", []string{"-shrink", "0", "-o", out}, 2, "tracegen: -shrink must be at least 1, got 0"},
		{"zero instructions", []string{"-instructions", "0", "-o", out}, 2, "tracegen: -instructions must be positive, got 0"},
		{"uncreatable output", []string{"-shrink", "64", "-o", filepath.Join(dir, "missing", "t.smtr")}, 1, "no such file or directory"},
	} {
		got, err := exec.Command(tracegenBin, tc.args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != tc.exit {
			t.Errorf("%s: err = %v, want exit status %d\n%s", tc.name, err, tc.exit, got)
		}
		if !strings.Contains(string(got), tc.stderr) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.stderr, got)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%s: a trace file was written", tc.name)
		}
	}
}

// TestSearchProfileTracesPinned pins the emitted trace of every search
// profile, at a shrink that builds in milliseconds, to SHA-256 digests of the
// files tracegen wrote at commit 1686ae1 — before the index build was split
// into BuildIndex/NewEngine and the inverter rewritten — so the build path is
// checked for byte-identical traces at the CLI edge.
func TestSearchProfileTracesPinned(t *testing.T) {
	dir := t.TempDir()
	for profile, want := range map[string]string{
		"s1-leaf":       "0931bfaa81bbacb9edc100267ba233af1cabeccd4fc159c38b70b59b440d6553",
		"s2-leaf":       "a7af50cae0dc3c132250e263cbcfb6243f30caaede019a2a48957adaef9ee7fe",
		"s3-leaf":       "a695874cb07110e87e996368ccc001ad3134aae37aec545a52ae367e8aa706ee",
		"s1-root":       "dba385c618a3cb1b29ded622acebb98ef76d53df7308f4fa64e7404649205a14",
		"s1-leaf-sweep": "f41bc085ffb788599f33a9db922bc98fc6d72c96d6dd425d7ac54fbbed290474",
	} {
		out := filepath.Join(dir, profile+".smtr")
		msg, err := exec.Command(tracegenBin, "-profile", profile, "-shrink", "64",
			"-instructions", "300000", "-threads", "2", "-seed", "1", "-o", out).CombinedOutput()
		if err != nil {
			t.Errorf("%s: %v\n%s", profile, err, msg)
			continue
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s: trace digest %s, want %s (%d bytes)", profile, got, want, len(data))
		}
		if !strings.Contains(string(msg), "wrote ") {
			t.Errorf("%s: no summary line on stderr:\n%s", profile, msg)
		}
	}
}
