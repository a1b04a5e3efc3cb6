package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyBaselines copies every committed BENCH_*.json at the module root
// into a fresh directory and returns the directory and the file names.
func copyBaselines(t *testing.T) (string, []string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed baselines found (%v)", err)
	}
	dir := t.TempDir()
	var names []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(p)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	return dir, names
}

// TestGateCoversEveryBaseline pins the no-argument file selection: every
// committed BENCH_*.json gets exactly one verdict line, the recovery
// baseline included, and a baseline whose fresh file is missing fails
// the gate rather than being skipped.
func TestGateCoversEveryBaseline(t *testing.T) {
	fresh, names := copyBaselines(t)
	base := filepath.Join("..", "..")

	var out, errOut bytes.Buffer
	if !gate(&out, &errOut, base, fresh, defaultRel, defaultAbs, nil) {
		t.Fatalf("identical baselines failed the gate:\n%s%s", out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(names) {
		t.Fatalf("%d verdict lines for %d baselines:\n%s", len(lines), len(names), out.String())
	}
	for _, n := range append(names, "BENCH_recover.json") {
		if !strings.Contains(out.String(), "ok   "+n+" (") {
			t.Errorf("no passing verdict for %s:\n%s", n, out.String())
		}
	}

	if err := os.Remove(filepath.Join(fresh, "BENCH_recover.json")); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if gate(&out, &errOut, base, fresh, defaultRel, defaultAbs, nil) {
		t.Fatalf("missing fresh BENCH_recover.json passed the gate:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "BENCH_recover.json") {
		t.Errorf("missing-file error does not name the file: %q", errOut.String())
	}
}

// TestGateNoBaselines: a baseline directory with nothing to compare is a
// failure, never a silent pass.
func TestGateNoBaselines(t *testing.T) {
	var out, errOut bytes.Buffer
	if gate(&out, &errOut, t.TempDir(), t.TempDir(), defaultRel, defaultAbs, nil) {
		t.Fatal("empty baseline directory passed the gate")
	}
}
