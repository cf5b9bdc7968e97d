package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"spcg/internal/experiments"
)

// TestRunUnknownSubcommand also keeps the deleted serving benchmarks deleted:
// the benchmark's serve workloads and the service and gateway tests carry
// their checks.
func TestRunUnknownSubcommand(t *testing.T) {
	for _, cmd := range []string{"nosuchtable", "tune", "gateway"} {
		var out, errBuf bytes.Buffer
		if code := run([]string{cmd}, &out, &errBuf); code != 2 {
			t.Errorf("%s: exit %d, want 2", cmd, code)
		}
		if !strings.Contains(errBuf.String(), `unknown subcommand "`+cmd+`"`) {
			t.Errorf("stderr should name the bad subcommand %q, got: %s", cmd, errBuf.String())
		}
		if !strings.Contains(errBuf.String(), "usage:") {
			t.Errorf("stderr should include usage, got: %s", errBuf.String())
		}
	}
}

// TestUsageListsEverySubcommand keeps the usage line honest: every
// registered subcommand must be advertised, with no duplicates, and each
// must actually be accepted by the dispatcher.
func TestUsageListsEverySubcommand(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	text := buf.String()
	seen := map[string]bool{}
	for _, cmd := range subcommands {
		if seen[cmd] {
			t.Errorf("subcommand %q registered twice", cmd)
		}
		seen[cmd] = true
		if !strings.Contains(text, cmd) {
			t.Errorf("usage text does not list subcommand %q: %s", cmd, text)
		}
		if !slices.Contains(subcommands, cmd) {
			t.Errorf("registered subcommand %q not accepted by the dispatcher", cmd)
		}
		// A recognized command must get past the unknown-subcommand check:
		// a bogus flag yields a flag-parse failure (exit 2) but never the
		// "unknown subcommand" message.
		var out, errBuf bytes.Buffer
		if code := run([]string{cmd, "-definitely-not-a-flag"}, &out, &errBuf); code != 2 {
			t.Errorf("%s with bad flag: exit %d, want 2", cmd, code)
		}
		if strings.Contains(errBuf.String(), "unknown subcommand") {
			t.Errorf("%s rejected as unknown subcommand", cmd)
		}
	}
}

func TestRunNoArgs(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "usage:") {
		t.Errorf("stderr should include usage, got: %s", errBuf.String())
	}
}

func TestRunRejectsPositionalArgs(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"table1", "-s", "4", "stray"}, &out, &errBuf); code != 2 {
		t.Errorf("stray positional arg: exit %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "unexpected arguments") {
		t.Errorf("stderr should flag unexpected arguments, got: %s", errBuf.String())
	}
}

func TestRunBadFlagValue(t *testing.T) {
	for _, cmd := range []string{"table2", "table3"} {
		var out, errBuf bytes.Buffer
		if code := run([]string{cmd, "-only", "nosuchmatrix"}, &out, &errBuf); code != 2 {
			t.Errorf("%s, unknown matrix: exit %d, want 2", cmd, code)
		}
	}
}

func TestRunKernelsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("kernels sweep in -short mode")
	}
	outFile := t.TempDir() + "/bench.json"
	var out, errBuf bytes.Buffer
	code := run([]string{"kernels", "-sizes", "2048", "-workersweep", "1,2", "-reps", "1", "-out", outFile}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("kernels smoke: exit %d, stderr: %s", code, errBuf.String())
	}
	for _, want := range []string{"gram", "dispatch", "three_term_step", "pool beats spawn everywhere"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("kernels output missing %q: %s", want, out.String())
		}
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatalf("-out file: %v", err)
	}
	var res experiments.KernelsResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("-out is not valid JSON: %v", err)
	}
	if len(res.Cases) == 0 {
		t.Error("-out JSON has no cases")
	}
}

func TestParseIntList(t *testing.T) {
	got, err := parseIntList(" 1, 2,16 ")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 16 {
		t.Errorf("parseIntList = %v, %v", got, err)
	}
	if got, err := parseIntList(""); err != nil || got != nil {
		t.Errorf("empty list = %v, %v, want nil, nil", got, err)
	}
	for _, bad := range []string{"0", "-3", "x", "1,,2"} {
		if _, err := parseIntList(bad); err == nil {
			t.Errorf("parseIntList(%q) accepted", bad)
		}
	}
}

func TestRunTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 run in -short mode")
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"table1", "-s", "4", "-dim", "8"}, &out, &errBuf); code != 0 {
		t.Fatalf("table1 smoke: exit %d, stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "validation:") {
		t.Errorf("table1 output missing validation line: %s", out.String())
	}
}
