// Package examples runs every example program and pins its stdout.
package examples

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// names lists the example programs, one per audience of the paper.
var names = []string{"quickstart", "design-explorer", "serving-tree"}

// bin is the directory TestMain builds every example into.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "examples-test")
	if err != nil {
		panic(err)
	}
	bin = dir
	for _, name := range names {
		if out, err := exec.Command("go", "build", "-buildvcs=false", "-o", filepath.Join(bin, name), "./"+name).CombinedOutput(); err != nil {
			panic("go build ./" + name + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestExamplesGolden runs each example with its default flags and compares
// stdout with testdata/<name>.golden. Every example is seeded and runs in
// virtual time, so its output is byte-identical run to run.
func TestExamplesGolden(t *testing.T) {
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(filepath.Join(bin, name))
			var stderr strings.Builder
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.String())
			}
			if string(got) != string(want) {
				t.Errorf("stdout differs from testdata/%s.golden:\n%s", name, got)
			}
		})
	}
}
