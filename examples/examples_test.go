// Package examples_test runs every example program and compares its output
// with a golden file. The examples are what print the paper's Figures 1, 2,
// 4b/5, 6 and 7, DeVIL 3 vs 4 and the progressive stream, so this is the
// test that keeps those figures from drifting.
//
// To accept a changed output, regenerate its golden file from the
// repository root:
//
//	go run ./examples/linkedbrush > examples/testdata/linkedbrush.golden
package examples_test

import (
	"bytes"
	"image/png"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// examples lists each example with the PNG files it writes into its
// working directory.
var examples = []struct {
	name string
	pngs []string
}{
	{"asyncpolicies", []string{"mvcc_small_multiples.png"}},
	{"crossfilter", nil},
	{"linkedbrush", []string{"linkedbrush.png"}},
	{"precision", nil},
	{"progressive", nil},
	{"quickstart", []string{"quickstart.png"}},
}

// timing matches the only output that differs between runs: the DeVIL 3 vs
// 4 per-interaction latencies linkedbrush prints.
var timing = regexp.MustCompile(`\s*[0-9.]+ ms/interaction`)

func mask(b []byte) []byte { return timing.ReplaceAll(b, []byte(" <t> ms/interaction")) }

func TestExamplesGolden(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to build the examples with")
	}
	bin := t.TempDir()
	for _, ex := range examples {
		t.Run(ex.name, func(t *testing.T) {
			exe := filepath.Join(bin, ex.name)
			if out, err := exec.Command(goTool, "build", "-o", exe, "./"+ex.name).CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			dir := t.TempDir()
			cmd := exec.Command(exe)
			cmd.Dir = dir
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.Bytes())
			}
			want, err := os.ReadFile(filepath.Join("testdata", ex.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mask(got), mask(want)) {
				t.Errorf("stdout differs from testdata/%s.golden; got:\n%s", ex.name, got)
			}
			for _, name := range ex.pngs {
				f, err := os.Open(filepath.Join(dir, name))
				if err != nil {
					t.Errorf("%s not written: %v", name, err)
					continue
				}
				if _, err := png.Decode(f); err != nil {
					t.Errorf("%s does not decode: %v", name, err)
				}
				f.Close()
			}
		})
	}
}
