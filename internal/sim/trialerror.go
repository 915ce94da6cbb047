// Crash isolation for trial execution: a panic anywhere inside one trial —
// protocol bug, poisoned scenario, substrate invariant violation — must
// degrade that one data point, not kill a multi-thousand-trial experiment.
// RunTrials runs every trial under recover() and converts failures into
// structured TrialErrors that carry everything needed to reproduce the
// crash deterministically: the scenario, the trial index, the derived seed
// and the recovered stack, plus a one-line repro command.

package sim

import (
	"fmt"
	"runtime/debug"
	"strings"
)

// TrialError describes one trial abandoned by RunTrials after exhausting
// the Config.Retry budget.
type TrialError struct {
	// Scenario is a human-readable summary of the failing configuration.
	Scenario string
	// BaseSeed is the pooled run's seed; Trial is the failing index and
	// Seed the derived per-trial scenario seed
	// (Seed = xrand.Mix(BaseSeed, Trial)).
	BaseSeed uint64
	Trial    int
	Seed     uint64
	// Err is the underlying failure; a recovered panic is wrapped as a
	// PanicError. Stack is the goroutine stack captured at recovery
	// (empty when the trial returned an ordinary error).
	Err   error
	Stack string

	// cfg is the pooled run's scenario (Seed = BaseSeed), the source of
	// the repro command's flags.
	cfg Config
}

// Error renders the failure with its repro command; the stack is available
// separately so logs stay one line unless callers want it.
func (e *TrialError) Error() string {
	return fmt.Sprintf("sim: trial %d (%s, seed %#x) failed: %v [repro: %s]",
		e.Trial, e.Scenario, e.Seed, e.Err, e.Repro())
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *TrialError) Unwrap() error { return e.Err }

// Repro returns a one-line mmv2v-sim command that deterministically
// re-executes the failing trial: trials 0..Trial re-run, and each is a pure
// function of (scenario, derived seed), so the crash recurs on the last
// one. The scenario flags (-world grid geometry or -density, and any
// non-default -seconds/-windows/-demand) reproduce the failing config; a
// fault profile is named but cannot be inverted back to its intensity.
func (e *TrialError) Repro() string {
	c := e.cfg
	var b strings.Builder
	b.WriteString("go run ./cmd/mmv2v-sim")
	if c.Grid != nil {
		fmt.Fprintf(&b, " -world grid -rows %d -cols %d -block %g -grid-vehicles %d",
			c.Grid.Rows, c.Grid.Cols, c.Grid.BlockM, c.Grid.Vehicles)
	} else {
		fmt.Fprintf(&b, " -density %g", c.Traffic.DensityVPL)
	}
	fmt.Fprintf(&b, " -seed %d -trials %d", e.BaseSeed, e.Trial+1)
	def := DefaultConfig(c.Traffic.DensityVPL, c.Seed)
	//mmv2v:exact repro flags are emitted only when they differ from the CLI default bit for bit
	if c.WindowSec != def.WindowSec {
		fmt.Fprintf(&b, " -seconds %g", c.WindowSec)
	}
	if c.Windows != def.Windows {
		fmt.Fprintf(&b, " -windows %d", c.Windows)
	}
	//mmv2v:exact repro flags are emitted only when they differ from the CLI default bit for bit
	if c.DemandBits != def.DemandBits {
		fmt.Fprintf(&b, " -demand %g", c.DemandBits)
	}
	if c.Faults != nil && c.Faults.Enabled() {
		b.WriteString(" -faults <intensity>  # re-apply this run's FaultConfig")
	}
	return b.String()
}

// PanicError wraps a value recovered from a panicking trial so it can
// travel as an error through the retry and aggregation machinery.
type PanicError struct {
	Value any
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// runIsolated executes one trial with panics converted into PanicErrors.
func runIsolated(cfg Config, factory Factory) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: string(debug.Stack())}
		}
	}()
	return Run(cfg, factory)
}

// scenarioLabel summarizes a config for TrialError messages.
func scenarioLabel(cfg Config) string {
	var b strings.Builder
	if cfg.Grid != nil {
		fmt.Fprintf(&b, "grid %dx%d, %g m blocks, %d vehicles", cfg.Grid.Rows, cfg.Grid.Cols, cfg.Grid.BlockM, cfg.Grid.Vehicles)
	} else {
		fmt.Fprintf(&b, "density=%g vpl", cfg.Traffic.DensityVPL)
	}
	fmt.Fprintf(&b, ", %d×%gs windows, demand %g Mb", cfg.Windows, cfg.WindowSec, cfg.DemandBits/1e6)
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		b.WriteString(", faults on")
	}
	return b.String()
}
