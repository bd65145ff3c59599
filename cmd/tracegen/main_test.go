package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"searchmem/internal/trace"
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
		{"threads past MaxSessions", []string{"-threads", "17", "-o", out}, 2, "tracegen: -threads must be in 1..16, got 17"},
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
// profile, at a shrink that builds in milliseconds, twice: the decoded
// access stream (SHA-256 over each access's 16-byte little-endian encoding,
// with its count) as tracegen wrote it at commit 1686ae1 — before the index
// build was split into BuildIndex/NewEngine and the inverter rewritten — so
// the build path is checked for identical traces at the CLI edge; and the
// file's bytes, so the trace file format is pinned too.
func TestSearchProfileTracesPinned(t *testing.T) {
	dir := t.TempDir()
	for _, p := range []struct {
		profile  string
		accesses int
		stream   string
		file     string
	}{
		{"s1-leaf", 110477, "f80ab7452fda6b41ecb792345f33e6ee548f063489a05a8fd3b5c15bea1790bf",
			"cc88c21794c38ece154597ba6b3e74220dc290e65a8a64eb1d459c2dcdaf991c"},
		{"s2-leaf", 124953, "22f3a2bffdc976ddb0efabca20897df283164c67a879991b9fd55ae3e51f30f3",
			"5c89d884aaafd601295c9dfde760c205d34674a0d5ee35e691ea256f90066359"},
		{"s3-leaf", 102568, "11d8a689117ba8bf9b39faf37880babcf019f16ae24d62b8d35c06229c149d22",
			"7684ba32981369de1d24177770cef71fcaed2d52e56edaadbbb724ab5f88ae16"},
		{"s1-root", 65270, "355502b6db7d00be3b4f6c1375bb4a5371888e774fac63ba44d86bbccbdbce53",
			"c53fa88cd2ed00794398e4a4ab14fa0c33df73c15f5a708f35917acb6b60fbbe"},
		{"s1-leaf-sweep", 143424, "ad4fcc8d893bc249da58da4fb134b7473d036996dc98afd37134bcb749454a85",
			"4b98b7353d08d6ddcfea36e4f03156249380d11d182a95a2f66d405b2b00ab14"},
	} {
		out := filepath.Join(dir, p.profile+".smtr")
		msg, err := exec.Command(tracegenBin, "-profile", p.profile, "-shrink", "64",
			"-instructions", "300000", "-threads", "2", "-seed", "1", "-o", out).CombinedOutput()
		if err != nil {
			t.Errorf("%s: %v\n%s", p.profile, err, msg)
			continue
		}
		if !strings.Contains(string(msg), "wrote ") {
			t.Errorf("%s: no summary line on stderr:\n%s", p.profile, msg)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != p.file {
			t.Errorf("%s: file digest %s, want %s (%d bytes)", p.profile, got, p.file, len(data))
		}
		rec, err := trace.OpenFile(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("%s: %v", p.profile, err)
		}
		h := sha256.New()
		var enc [16]byte
		n := 0
		v := rec.View()
		for b := v.NextBatch(); len(b) > 0; b = v.NextBatch() {
			for _, a := range b {
				binary.LittleEndian.PutUint64(enc[:], a.Addr)
				binary.LittleEndian.PutUint16(enc[8:], a.Size)
				enc[10], enc[11], enc[12] = byte(a.Seg), byte(a.Kind), a.Thread
				h.Write(enc[:])
				n++
			}
		}
		if err := v.Err(); err != nil {
			t.Fatalf("%s: %v", p.profile, err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != p.stream || n != p.accesses {
			t.Errorf("%s: %d accesses with stream digest %s, want %d with %s", p.profile, n, got, p.accesses, p.stream)
		}
	}
}
