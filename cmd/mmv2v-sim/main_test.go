package main

import (
	"errors"
	"flag"
	"io"
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
