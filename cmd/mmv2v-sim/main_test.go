package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mmv2v"
	"mmv2v/internal/sim"
)

// parse runs args through the command's real flag set.
func parse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("mmv2v-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return o
}

// TestCheckFlagRules pins every flag-combination rule: each rejected
// combination names the offending flags, and the plain forms of the same
// modes stay accepted.
func TestCheckFlagRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // error substring; "" = accepted
	}{
		{"defaults", nil, ""},
		{"all protocols", []string{"-protocol", "all"}, ""},
		{"runlog single protocol", []string{"-runlog", "run.log", "-protocol", "rop"}, ""},
		{"runlog needs a single protocol", []string{"-runlog", "run.log", "-protocol", "all"}, "-runlog needs a single -protocol"},
		{"runlog rejects stats", []string{"-runlog", "run.log", "-stats", "s.jsonl"}, "-runlog records metric tables, not the -stats registry"},
		{"runlog rejects series", []string{"-runlog", "run.log", "-series", "s.jsonl"}, "drop -series/-http"},
		{"runlog rejects http", []string{"-runlog", "run.log", "-http", "127.0.0.1:0"}, "drop -series/-http"},
		{"grid drive", []string{"-world", "grid", "-drive", "2"}, ""},
		{"drive needs grid", []string{"-drive", "2"}, "-drive requires -world grid"},
		{"drive rejects series", []string{"-world", "grid", "-drive", "2", "-series", "s.jsonl"}, "drop -series"},
		{"drive rejects stats", []string{"-world", "grid", "-drive", "2", "-stats", "s.jsonl"}, "drop -stats"},
		{"drive rejects trace", []string{"-world", "grid", "-drive", "2", "-trace", "t.jsonl"}, "drop -trace"},
		{"drive rejects runlog", []string{"-world", "grid", "-drive", "2", "-runlog", "run.log"}, "drop -runlog"},
		{"drive profiles", []string{"-world", "grid", "-drive", "2", "-cpuprofile", "p", "-memprofile", "m", "-http", "127.0.0.1:0"}, ""},
		{"unknown world", []string{"-world", "moon"}, `unknown world "moon"`},
		{"unknown protocol", []string{"-protocol", "tcp"}, `unknown protocol "tcp"`},
		{"negative faults", []string{"-faults", "-1"}, "negative fault intensity"},
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

// TestReproRebuildsScenario closes the loop on TrialError.Repro: the flags
// it prints, parsed by this command, must rebuild exactly the scenario the
// failing trial ran under.
func TestReproRebuildsScenario(t *testing.T) {
	for _, args := range [][]string{
		{"-density", "12", "-seed", "4", "-seconds", "0.2", "-windows", "3", "-demand", "1e8"},
		{"-world", "grid", "-rows", "2", "-cols", "4", "-block", "150", "-grid-vehicles", "60", "-seed", "9"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			cfg := parse(t, args...).scenario()
			crash := mmv2v.Factory(func(*sim.Env) sim.Protocol { panic("always down") })
			_, err := mmv2v.RunTrials(cfg, crash, 1)
			var te *mmv2v.TrialError
			if !errors.As(err, &te) {
				t.Fatalf("err = %v, want a TrialError", err)
			}
			repro, ok := strings.CutPrefix(te.Repro(), "go run ./cmd/mmv2v-sim ")
			if !ok {
				t.Fatalf("Repro %q does not run mmv2v-sim", te.Repro())
			}
			o := parse(t, strings.Fields(repro)...)
			if err := o.check(); err != nil {
				t.Fatalf("repro flags rejected: %v", err)
			}
			if o.trials != te.Trial+1 {
				t.Errorf("repro runs %d trials, want %d", o.trials, te.Trial+1)
			}
			if got := o.scenario(); !reflect.DeepEqual(got, cfg) {
				t.Errorf("repro %q rebuilds\n  %+v\nwant\n  %+v", repro, got, cfg)
			}
		})
	}
}

// TestDriveWritesProfiles runs a tiny -drive on the built binary and checks
// that -cpuprofile and -memprofile cover it, as they cover protocol runs.
func TestDriveWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "mmv2v-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	out, err := exec.Command(bin, "-world", "grid", "-drive", "0.1", "-grid-vehicles", "100", "-rows", "3", "-cols", "3",
		"-cpuprofile", cpu, "-memprofile", mem).CombinedOutput()
	if err != nil {
		t.Fatalf("drive: %v\n%s", err, out)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written: %v", filepath.Base(p), err)
		}
	}
}
