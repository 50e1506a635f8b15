package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRunErrorPaths is the table covering the dispatcher's exit-code
// contract: usage errors (unknown subcommand, bad flags, no command) exit 2
// and print usage, runtime failures exit 1, help exits 0.
func TestRunErrorPaths(t *testing.T) {
	graphPath := genGraph(t, "rmat")
	cases := []struct {
		name       string
		args       []string
		code       int
		wantStderr string // substring that must appear on stderr ("" = don't care)
	}{
		{"no command", nil, 2, "no command given"},
		{"unknown command", []string{"frobnicate"}, 2, "unknown command"},
		{"unknown command usage", []string{"frobnicate"}, 2, "commands:"},
		{"help", []string{"help"}, 0, "commands:"},
		{"help flag", []string{"--help"}, 0, "commands:"},
		{"subcommand help flag", []string{"bfs", "-h"}, 0, ""},
		{"bad flag", []string{"stats", "-no-such-flag"}, 2, "havoq:"},
		{"bad flag value", []string{"generate", "-scale", "banana"}, 2, "havoq:"},
		{"missing input file", []string{"stats", "-in", filepath.Join(t.TempDir(), "missing.hvqg")}, 1, "havoq:"},
		{"unknown model", []string{"generate", "-model", "zzz", "-out", filepath.Join(t.TempDir(), "x.hvqg")}, 1, "unknown model"},
		{"convert missing out", []string{"convert", "-in", "x.txt"}, 1, "-out"},
		{"bad k", []string{"kcore", "-in", graphPath, "-k", "0"}, 1, "bad k"},
		{"valid stats", []string{"stats", "-in", graphPath}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			code := run(tc.args, &stderr)
			if code != tc.code {
				t.Fatalf("run(%q) = %d, want %d (stderr: %s)", tc.args, code, tc.code, stderr.String())
			}
			if tc.wantStderr != "" && !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Fatalf("run(%q) stderr %q missing %q", tc.args, stderr.String(), tc.wantStderr)
			}
		})
	}
}

// genGraph writes a small test graph and returns its path.
func genGraph(t *testing.T, model string, extra ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.hvqg")
	args := append([]string{"-model", model, "-scale", "9", "-seed", "3", "-out", path}, extra...)
	if err := cmdGenerate(args); err != nil {
		t.Fatalf("generate: %v", err)
	}
	return path
}

func TestGenerateAllModels(t *testing.T) {
	for _, model := range []string{"rmat", "pa", "sw"} {
		genGraph(t, model)
	}
}

func TestGenerateRejectsUnknownModel(t *testing.T) {
	if err := cmdGenerate([]string{"-model", "nope", "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestStats(t *testing.T) {
	path := genGraph(t, "rmat")
	if err := cmdStats([]string{"-in", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats([]string{"-in", path + ".missing"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBFSCommandWithValidation(t *testing.T) {
	path := genGraph(t, "rmat")
	for _, topo := range []string{"1d", "2d", "3d"} {
		args := []string{"-in", path, "-p", "4", "-topo", topo, "-source", "1", "-validate"}
		if err := cmdBFS(args); err != nil {
			t.Fatalf("topo %s: %v", topo, err)
		}
	}
}

func TestBFSCommandNVRAM(t *testing.T) {
	path := genGraph(t, "rmat")
	if err := cmdBFS([]string{"-in", path, "-p", "2", "-nvram", "-cache-mb", "1", "-source", "0"}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSCommand1DPartition(t *testing.T) {
	path := genGraph(t, "rmat")
	if err := cmdBFS([]string{"-in", path, "-p", "4", "-1d-partition", "-source", "0", "-validate"}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSCommandRejectsBadSource(t *testing.T) {
	path := genGraph(t, "rmat")
	if err := cmdBFS([]string{"-in", path, "-p", "2", "-source", "99999999"}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// captureStdout runs fn with os.Stdout sent to a file and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestKCoreCommand: both layouts simplify the RMAT multigraph, so they print
// the same core sizes.
func TestKCoreCommand(t *testing.T) {
	path := genGraph(t, "rmat")
	coreSizes := func(extra ...string) []string {
		out := captureStdout(t, func() error {
			return cmdKCore(append([]string{"-in", path, "-p", "3", "-k", "2,8,16"}, extra...))
		})
		var sizes []string
		for _, field := range strings.Fields(out) {
			if strings.HasPrefix(field, "core-size=") {
				sizes = append(sizes, field)
			}
		}
		return sizes
	}
	edgeList, oneD := coreSizes(), coreSizes("-1d-partition")
	if len(edgeList) != 3 || !slices.Equal(edgeList, oneD) {
		t.Fatalf("edge list partitioning prints %v, -1d-partition prints %v", edgeList, oneD)
	}
	if err := cmdKCore([]string{"-in", path, "-k", "0"}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := cmdKCore([]string{"-in", path, "-k", "abc"}); err == nil {
		t.Fatal("non-numeric k accepted")
	}
}

func TestTriangleCommand(t *testing.T) {
	path := genGraph(t, "sw", "-k", "8")
	if err := cmdTriangles([]string{"-in", path, "-p", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestSSSPCommand(t *testing.T) {
	path := genGraph(t, "rmat")
	if err := cmdSSSP([]string{"-in", path, "-p", "3", "-source", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestCCCommand(t *testing.T) {
	path := genGraph(t, "pa")
	if err := cmdCC([]string{"-in", path, "-p", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.hvqg")
	b := filepath.Join(dir, "b.hvqg")
	for i, path := range []string{a, b} {
		if err := cmdGenerate([]string{"-model", "rmat", "-scale", "8", "-seed", "5", "-out", path}); err != nil {
			t.Fatalf("gen %d: %v", i, err)
		}
	}
	fa, _ := filepath.Glob(a)
	fb, _ := filepath.Glob(b)
	if len(fa) != 1 || len(fb) != 1 {
		t.Fatal("outputs missing")
	}
	da := readAll(t, a)
	db := readAll(t, b)
	if fmt.Sprintf("%x", da) != fmt.Sprintf("%x", db) {
		t.Fatal("same seed produced different files")
	}
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bin := genGraph(t, "rmat")
	txt := filepath.Join(dir, "g.tsv")
	bin2 := filepath.Join(dir, "g2.hvqg")
	if err := cmdConvert([]string{"-in", bin, "-out", txt}); err != nil {
		t.Fatal(err)
	}
	if err := cmdConvert([]string{"-in", txt, "-out", bin2, "-n", "512"}); err != nil {
		t.Fatal(err)
	}
	a := readAll(t, bin)
	b := readAll(t, bin2)
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	if fmt.Sprintf("%x", a) != fmt.Sprintf("%x", b) {
		t.Fatal("binary -> text -> binary round trip changed the graph")
	}
	if err := cmdConvert([]string{"-in", txt}); err == nil {
		t.Fatal("missing -out accepted")
	}
}
