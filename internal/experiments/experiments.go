// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. IV): the parameter-configuration studies of Fig. 6
// (CNS constant C), Fig. 7 (discovery rounds K) and Fig. 8 (negotiation
// slots M), the protocol comparison of Fig. 9 (OCR/ATP/DTP vs traffic
// density for mmV2V, ROP and IEEE 802.11ad), the Theorem 2 discovery-ratio
// validation, and an ablation study (our addition) against the centralized
// greedy oracle and beam-width/role-probability variants.
//
// Every experiment takes an options struct with paper defaults, returns a
// typed result, and can print itself as an aligned text table whose
// rows/series mirror what the paper plots. Each runner-backed experiment is
// a list of independent cells handed to sweep, which runs them on one
// shared sim.Runner.
package experiments

import (
	"fmt"
	"io"

	"mmv2v/internal/sim"
	"mmv2v/internal/xrand"
)

// Run is the execution setting every runner-backed experiment embeds in
// its options.
type Run struct {
	Seed uint64
	// Trials per cell.
	Trials int
	// Workers bounds concurrent trial simulations across all cells
	// (0 = GOMAXPROCS). Results are identical for any value.
	Workers int
	// Progress, when non-nil, is invoked once per completed cell with a
	// short label. Cells complete on concurrent goroutines, so the callback
	// must be safe for concurrent use (the CLI wraps its printer in a
	// mutex).
	Progress func(cell string)
}

// sweep runs n independent cells, all submitting their trials to one shared
// runner, and returns their values in a slot-per-cell buffer: the result
// order is fixed by the cell index, never by completion order, so output is
// identical for any worker count. cell returns its value and the progress
// label reported once it completes. name identifies the experiment in the
// error for a zero trial count or an empty cell list.
func sweep[T any](name string, run Run, n int, cell func(r *sim.Runner, k int) (T, string, error)) ([]T, error) {
	if run.Trials <= 0 || n <= 0 {
		return nil, fmt.Errorf("experiments: invalid %s options: %d trials, %d cells", name, run.Trials, n)
	}
	runner := sim.NewRunner(run.Workers)
	out := make([]T, n)
	err := sim.Gather(n, func(k int) error {
		v, label, err := cell(runner, k)
		if err != nil {
			return err
		}
		out[k] = v
		if run.Progress != nil {
			run.Progress(label)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// trialSeed derives the seed of one trial from the experiment seed, for
// experiments that run their own trials instead of Runner.RunTrials.
func trialSeed(seed uint64, trial int) uint64 {
	return xrand.Mix(seed, 0xe9, uint64(trial))
}

// writeHeader prints an experiment banner.
func writeHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s ==\n", title)
}
