package sim_test

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mmv2v/internal/sim"
	"mmv2v/internal/traffic"
	"mmv2v/internal/xrand"
)

func TestRunnerDefaultsToGOMAXPROCS(t *testing.T) {
	if w := sim.NewRunner(0).Workers(); w < 1 {
		t.Errorf("default workers = %d", w)
	}
	if w := sim.NewRunner(3).Workers(); w != 3 {
		t.Errorf("workers = %d, want 3", w)
	}
}

func TestRunnerDoBoundsConcurrency(t *testing.T) {
	const workers, jobs = 2, 16
	r := sim.NewRunner(workers)
	var cur, max int64
	var mu sync.Mutex
	err := r.Do(jobs, func(int) error {
		n := atomic.AddInt64(&cur, 1)
		mu.Lock()
		if n > max {
			max = n
		}
		mu.Unlock()
		atomic.AddInt64(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if max > workers {
		t.Errorf("observed %d concurrent jobs, bound is %d", max, workers)
	}
}

func TestRunnerDoJoinsAllErrorsLowestFirst(t *testing.T) {
	r := sim.NewRunner(4)
	errA, errB := errors.New("job 2 failed"), errors.New("job 5 failed")
	err := r.Do(8, func(i int) error {
		switch i {
		case 2:
			return errA
		case 5:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("err = %v, want both job errors wrapped", err)
	}
	msg := err.Error()
	if ia, ib := strings.Index(msg, errA.Error()), strings.Index(msg, errB.Error()); ia < 0 || ib < 0 || ia > ib {
		t.Errorf("err = %q, want lowest-index error first", msg)
	}
}

func TestGatherRunsAllJobs(t *testing.T) {
	var n int64
	if err := sim.Gather(10, func(int) error {
		atomic.AddInt64(&n, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("ran %d jobs, want 10", n)
	}
	want := errors.New("boom")
	if err := sim.Gather(3, func(i int) error {
		if i == 1 {
			return want
		}
		return nil
	}); !errors.Is(err, want) {
		t.Errorf("err = %v, want wrapped %v", err, want)
	}
}

// TestRunTrialsDeterministicAcrossWorkers pins the parallel engine's core
// contract: with the same seed, the pooled Result is bit-identical for any
// worker count, because trials are independently seeded and merged in trial
// order.
func TestRunTrialsDeterministicAcrossWorkers(t *testing.T) {
	cfg := sim.DefaultConfig(10, 5)
	cfg.WindowSec = 0.1
	const trials = 4
	var results []*sim.Result
	for _, workers := range []int{1, 4, 8} {
		c := cfg
		c.Workers = workers
		res, err := sim.RunTrials(c, greedyFactory(), trials)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("Workers=1 and Workers=%d results differ", []int{1, 4, 8}[i])
		}
	}
}

// panicOnSeed wraps a factory so the trial whose derived scenario seed
// matches badSeed panics — deterministically, regardless of worker count.
func panicOnSeed(base sim.Factory, badSeed uint64) sim.Factory {
	return func(env *sim.Env) sim.Protocol {
		if env.Seed == badSeed {
			panic("deliberate test panic")
		}
		return base(env)
	}
}

// TestRunTrialsRecoversPanicIntoTrialError pins the crash-isolation
// contract: a panicking trial becomes a structured TrialError carrying
// scenario, trial index, derived seed and stack, while the remaining
// trials complete and merge.
func TestRunTrialsRecoversPanicIntoTrialError(t *testing.T) {
	cfg := sim.DefaultConfig(10, 5)
	cfg.WindowSec = 0.1
	cfg.Workers = 4
	const trials = 4
	badSeed := xrand.Mix(cfg.Seed, 1)
	res, err := sim.RunTrials(cfg, panicOnSeed(greedyFactory(), badSeed), trials)
	if err != nil {
		t.Fatalf("partial failure must not fail the run: %v", err)
	}
	if res.Trials != trials-1 {
		t.Errorf("Trials = %d, want %d survivors", res.Trials, trials-1)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("Failures = %d, want 1", len(res.Failures))
	}
	f := res.Failures[0]
	if f.Trial != 1 || f.Seed != badSeed || f.BaseSeed != cfg.Seed {
		t.Errorf("TrialError = trial %d seed %#x base %#x, want trial 1 seed %#x base %#x",
			f.Trial, f.Seed, f.BaseSeed, badSeed, cfg.Seed)
	}
	if !strings.Contains(f.Scenario, "density=10") {
		t.Errorf("Scenario = %q, want density context", f.Scenario)
	}
	if !strings.Contains(f.Stack, "goroutine") {
		t.Errorf("Stack not captured: %q", f.Stack)
	}
	var pe *sim.PanicError
	if !errors.As(f, &pe) || pe.Value != "deliberate test panic" {
		t.Errorf("Unwrap chain lost the panic: %v", f.Err)
	}
	if repro := f.Repro(); !strings.Contains(repro, "-seed 5") || !strings.Contains(repro, "-trials 2") {
		t.Errorf("Repro = %q, want -seed 5 -trials 2", repro)
	}
}

// TestRunTrialsAllFailedReturnsJoinedError: when every trial fails, the
// run fails with the join of all TrialErrors, lowest trial first.
func TestRunTrialsAllFailedReturnsJoinedError(t *testing.T) {
	cfg := sim.DefaultConfig(10, 5)
	cfg.WindowSec = 0.1
	cfg.Workers = 4
	factory := func(*sim.Env) sim.Protocol { panic("always down") }
	res, err := sim.RunTrials(cfg, sim.Factory(factory), 3)
	if res != nil || err == nil {
		t.Fatalf("res=%v err=%v, want nil result and joined error", res, err)
	}
	var te *sim.TrialError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TrialError in chain", err)
	}
	msg := err.Error()
	if i0, i2 := strings.Index(msg, "trial 0"), strings.Index(msg, "trial 2"); i0 < 0 || i2 < 0 || i0 > i2 {
		t.Errorf("joined error %q not in trial order", msg)
	}
}

func TestConfigValidateRejectsNegativeWorkers(t *testing.T) {
	cfg := sim.DefaultConfig(10, 1)
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Workers should fail validation")
	}
}

// TestTrialErrorReproNamesScenario pins the repro line, the one path back
// to a failed trial: it must re-create the failing scenario — the grid
// geometry for a grid run, and every non-default window or demand flag —
// not just the road density.
func TestTrialErrorReproNamesScenario(t *testing.T) {
	windowed := sim.DefaultConfig(20, 3)
	windowed.WindowSec = 0.2
	windowed.Windows = 3
	windowed.DemandBits = 100e6
	grid := traffic.DefaultGridConfig(240)
	grid.Rows, grid.Cols, grid.BlockM = 3, 3, 200
	gridCfg := sim.DefaultConfig(15, 9)
	gridCfg.Grid = &grid
	for _, tc := range []struct {
		name     string
		cfg      sim.Config
		repro    string
		scenario string
	}{
		{"road default", sim.DefaultConfig(10, 5),
			"go run ./cmd/mmv2v-sim -density 10 -seed 5 -trials 1",
			"density=10 vpl, 1×1s windows, demand 200 Mb"},
		{"road 3 windows", windowed,
			"go run ./cmd/mmv2v-sim -density 20 -seed 3 -trials 1 -seconds 0.2 -windows 3 -demand 1e+08",
			"density=20 vpl, 3×0.2s windows, demand 100 Mb"},
		{"grid", gridCfg,
			"go run ./cmd/mmv2v-sim -world grid -rows 3 -cols 3 -block 200 -grid-vehicles 240 -seed 9 -trials 1",
			"grid 3x3, 200 m blocks, 240 vehicles, 1×1s windows, demand 200 Mb"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			factory := func(*sim.Env) sim.Protocol { panic("always down") }
			_, err := sim.RunTrials(tc.cfg, sim.Factory(factory), 1)
			var te *sim.TrialError
			if !errors.As(err, &te) {
				t.Fatalf("err = %v, want a TrialError", err)
			}
			if got := te.Repro(); got != tc.repro {
				t.Errorf("Repro =\n  %s\nwant\n  %s", got, tc.repro)
			}
			if te.Scenario != tc.scenario {
				t.Errorf("Scenario = %q, want %q", te.Scenario, tc.scenario)
			}
		})
	}
}
