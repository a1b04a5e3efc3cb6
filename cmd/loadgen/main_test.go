package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets the tests run the command itself: a child process of the
// test binary started with runMainEnv set executes main.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "LOADGEN_TEST_RUN_MAIN"

// TestObsNetObsByteIdentical: two same-flag runs write the same
// transport-dynamics dump, byte for byte, and the series files beside it.
func TestObsNetObsByteIdentical(t *testing.T) {
	var dumps [2][]byte
	for i := range dumps {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-flows", "8", "-clients", "2", "-servers", "1",
			"-bulk", "-duration", "5ms", "-obs", "netobs,series", "-obs-dir", dir)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var errOut bytes.Buffer
		cmd.Stderr = &errOut
		if err := cmd.Run(); err != nil {
			t.Fatalf("run %d: %v: %s", i, err, errOut.String())
		}
		data, err := os.ReadFile(filepath.Join(dir, "netobs.json"))
		if err != nil {
			t.Fatal(err)
		}
		dumps[i] = data
		for _, name := range []string{"netobs-chrome.json", "series.json", "series.csv"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("run %d: %v", i, err)
			}
		}
	}
	if len(dumps[0]) == 0 || !bytes.Equal(dumps[0], dumps[1]) {
		t.Fatalf("netobs.json differs between same-flag runs (%d vs %d bytes)", len(dumps[0]), len(dumps[1]))
	}
}
