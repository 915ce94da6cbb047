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

// parse runs args through the command's real flag set.
func parse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("mmv2v-experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return o
}

// TestCheckFlagRules pins every flag rule: each rejected combination names
// the offending value, and the accepted forms of the same flags stay
// accepted.
func TestCheckFlagRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // error substring; "" = accepted
	}{
		{"defaults", nil, ""},
		{"csv", []string{"-format", "csv", "-fig", "7"}, ""},
		{"every figure", []string{"-fig", "city", "-workers", "2", "-trials", "1"}, ""},
		{"unknown format", []string{"-format", "bogus"}, `unknown format "bogus"`},
		{"negative workers", []string{"-workers", "-1"}, "negative worker count -1"},
		{"unknown figure", []string{"-fig", "10"}, `unknown figure "10"`},
		{"stats fig 9", []string{"-fig", "9", "-stats", "s.jsonl"}, ""},
		{"series faults", []string{"-fig", "faults", "-series", "s.jsonl"}, ""},
		{"stats faults shorthand", []string{"-faults", "-stats", "s.csv"}, ""},
		{"stats all", []string{"-stats", "s.jsonl", "-series", "p.jsonl"}, ""},
		{"stats fig 6", []string{"-fig", "6", "-stats", "s.jsonl"}, "figure 6 records no -stats/-series"},
		{"series t2", []string{"-fig", "t2", "-series", "s.jsonl"}, "figure t2 records no -stats/-series"},
		{"stats trucks", []string{"-fig", "trucks", "-stats", "s.jsonl"}, "figure trucks records no -stats/-series"},
		{"series city", []string{"-fig", "city", "-series", "s.jsonl"}, "figure city records no -stats/-series"},
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

// TestFiguresResolve pins the -fig all composition and the -faults
// shorthand.
func TestFiguresResolve(t *testing.T) {
	if got := strings.Join(parse(t).figures(), " "); got != "t2 6 7 8 9 ablation trucks warmup" {
		t.Errorf("-fig all runs %q", got)
	}
	if got := parse(t, "-fig", "9", "-faults").figures(); len(got) != 1 || got[0] != "faults" {
		t.Errorf("-faults runs %q, want faults", got)
	}
}

// TestExitCodes pins the exit contract on the built binary: 0 ok, 1 run
// error, 2 usage error, and a usage error leaves no side effect behind.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "mmv2v-experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	profile := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(profile, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	stats := filepath.Join(dir, "stats.jsonl")
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"ok", []string{"-fig", "t2", "-format", "csv"}, 0},
		{"run error", []string{"-fig", "t2", "-cpuprofile", filepath.Join(dir, "missing", "p")}, 1},
		{"unknown flag", []string{"-nope"}, 2},
		{"unknown figure", []string{"-fig", "10"}, 2},
		{"bad format after profile flag", []string{"-cpuprofile", profile, "-format", "bogus"}, 2},
		{"bad format with http", []string{"-http", "127.0.0.1:0", "-format", "bogus"}, 2},
		{"stats without a stats figure", []string{"-fig", "6", "-stats", stats}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stdout = io.Discard
			cmd.Stderr = &stderr
			err := cmd.Run()
			code := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("run %v: %v", tc.args, err)
			}
			if code != tc.want {
				t.Errorf("exit code = %d, want %d (stderr: %s)", code, tc.want, &stderr)
			}
			if code != 0 && strings.TrimSpace(stderr.String()) == "" {
				t.Error("failed with empty stderr; errors must be reported")
			}
			if tc.want == 2 && strings.Contains(stderr.String(), "live introspection") {
				t.Error("usage error started the live server")
			}
		})
	}
	if got, err := os.ReadFile(profile); err != nil || string(got) != "keep" {
		t.Errorf("usage error touched -cpuprofile: %q, %v", got, err)
	}
	if _, err := os.Stat(stats); !os.IsNotExist(err) {
		t.Errorf("usage error created the -stats file: %v", err)
	}
}
