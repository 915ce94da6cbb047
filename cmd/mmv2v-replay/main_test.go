package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// golden is the committed run log the replay gate verifies.
var golden = filepath.Join("..", "..", "testdata", "golden.runlog")

// parse runs args through the command's real flag set.
func parse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("mmv2v-replay", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	o.args = fs.Args()
	return o
}

// TestCheckFlagRules pins every usage rule: each rejected command line
// names what is wrong, and the plain forms stay accepted.
func TestCheckFlagRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // error substring; "" = accepted
	}{
		{"one log", []string{"run.log"}, ""},
		{"verify with workers", []string{"-verify", "-workers", "2", "-json", "run.log"}, ""},
		{"no log", nil, "want one run-log path, got 0 arguments"},
		{"two logs", []string{"a.log", "b.log"}, "want one run-log path, got 2 arguments"},
		{"negative workers", []string{"-workers", "-1", "run.log"}, "negative worker count -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := parse(t, tc.args...).check()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("check(%v) = %v, want accepted", tc.args, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("check(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestExitCodes pins the exit contract on the built binary: 0 on the golden
// log, 1 on a log that cannot be read, 2 on a usage error.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "mmv2v-replay")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.runlog")
	if err := os.WriteFile(cut, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
		out  string // stdout or stderr substring
	}{
		{"golden", []string{golden}, 0, "replay of"},
		{"golden verify", []string{"-verify", "-workers", "2", golden}, 0, "every digest matches the log"},
		{"truncated log", []string{cut}, 1, "persist: truncated input"},
		{"missing log", []string{filepath.Join(dir, "nope.runlog")}, 1, "no such file"},
		{"no log", nil, 2, "want one run-log path"},
		{"two logs", []string{golden, golden}, 2, "want one run-log path"},
		{"negative workers", []string{"-workers", "-1", golden}, 2, "negative worker count"},
		{"unknown flag", []string{"-nope", golden}, 2, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stdout = &out
			cmd.Stderr = &out
			err := cmd.Run()
			code := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("run %v: %v", tc.args, err)
			}
			if code != tc.want {
				t.Errorf("exit code = %d, want %d (output: %s)", code, tc.want, &out)
			}
			if !strings.Contains(out.String(), tc.out) {
				t.Errorf("output %q does not mention %q", &out, tc.out)
			}
		})
	}
}
