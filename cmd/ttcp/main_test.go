package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
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

const runMainEnv = "TTCP_TEST_RUN_MAIN"

// ttcpCmd runs the command with args and returns its stdout, stderr and
// exit code.
func ttcpCmd(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestObsWritesEveryFile selects every observer: each listed file must
// appear in -obs-dir (every JSON file parsing), and the transfer report
// must read exactly as it does with no observer on.
func TestObsWritesEveryFile(t *testing.T) {
	dir := t.TempDir()
	plain, errOut, code := ttcpCmd(t, "-total", "1M")
	if code != 0 {
		t.Fatalf("plain run exited %d: %s", code, errOut)
	}
	observed, errOut, code := ttcpCmd(t, "-total", "1M",
		"-obs", strings.Join(core.ObsNames(), ","), "-obs-dir", dir)
	if code != 0 {
		t.Fatalf("-obs run exited %d: %s", code, errOut)
	}
	if !strings.HasPrefix(observed, plain) {
		t.Errorf("report changed under -obs:\n--- plain\n%s--- with -obs\n%s", plain, observed)
	}
	for _, name := range []string{
		"metrics.json", "trace.json", "critpath.json", "profile.folded", "profile.json",
		"series.json", "series.csv", "ledger.json", "flightrec.json",
		"netobs.json", "netobs-chrome.json", "cpu.pprof", "mem.pprof",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
		if strings.HasSuffix(name, ".json") && !json.Valid(data) {
			t.Errorf("%s does not parse as JSON", name)
		}
	}
	if !strings.Contains(observed, "oracle: ok") {
		t.Errorf("ledger summary lacks the single-copy oracle verdict:\n%s", observed)
	}
}

// TestObsUnknownName: a name outside the table is a usage error that
// lists the valid names.
func TestObsUnknownName(t *testing.T) {
	_, errOut, code := ttcpCmd(t, "-obs", "telemetry,bogus")
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (stderr: %s)", code, errOut)
	}
	for _, name := range core.ObsNames() {
		if !strings.Contains(errOut, name) {
			t.Errorf("stderr does not list %q: %s", name, errOut)
		}
	}
}
