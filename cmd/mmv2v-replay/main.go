// Command mmv2v-replay re-renders a recorded run from its run log — without
// re-simulating — and, under -verify, re-executes the run live and diffs it
// against the recorded per-window digests (DESIGN.md §11).
//
// Usage:
//
//	mmv2v-sim -density 15 -trials 3 -runlog run.log   # record
//	mmv2v-replay run.log                              # re-render the tables
//	mmv2v-replay -verify run.log                      # replay + diff digests
//
// Replay reconstructs the per-trial results from the log and pools them
// through the same trial merge the live run used, so the rendered table is
// byte-identical to the original run's. -verify re-runs every trial from
// the recipe stored in the log header (any -workers count — results are
// worker-count invariant) and reports the first divergent (trial, window),
// exiting non-zero; a divergence means the build no longer reproduces the
// recorded simulation byte-for-byte.
//
// Every flag is checked before anything runs. The exit status is 0 on
// success, 1 when the log cannot be read or diverges from a live
// re-execution, and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mmv2v"
)

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	o.args = flag.Args()
	if err := o.check(); err != nil {
		fmt.Fprintln(os.Stderr, "mmv2v-replay:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmv2v-replay:", err)
		os.Exit(1)
	}
}

// options holds the parsed command line.
type options struct {
	verify  bool
	workers int
	jsonOut bool
	// args are the positional arguments: exactly one run-log path.
	args []string
}

// bindFlags registers every command-line flag on fs and returns the options
// they fill once fs is parsed; the caller sets args from fs.Args().
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.BoolVar(&o.verify, "verify", false, "re-execute the run and diff live per-window digests against the recorded ones")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size for -verify re-execution (0 = GOMAXPROCS)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the replayed summary as JSON instead of a table")
	return o
}

// check enforces the usage rules before anything runs. It reads only the
// options, so every rule is table-tested without reading a log.
func (o *options) check() error {
	if len(o.args) != 1 {
		return fmt.Errorf("want one run-log path, got %d arguments (usage: mmv2v-replay [-verify] [-workers N] [-json] <run.log>)", len(o.args))
	}
	if o.workers < 0 {
		return fmt.Errorf("negative worker count %d", o.workers)
	}
	return nil
}

func run(o *options, w io.Writer) error {
	path := o.args[0]
	rl, err := mmv2v.ReadRunLog(path)
	if err != nil {
		return err
	}
	h := rl.Header
	res := rl.Result()
	if o.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Protocol     string  `json:"protocol"`
			DensityVPL   float64 `json:"density_vpl"`
			OCR          float64 `json:"ocr"`
			ATP          float64 `json:"atp"`
			DTP          float64 `json:"dtp"`
			AvgNeighbors float64 `json:"avg_neighbors"`
			Events       uint64  `json:"des_events"`
			Trials       int     `json:"trials"`
		}{res.Protocol, h.DensityVPL, res.Summary.MeanOCR, res.Summary.MeanATP,
			res.Summary.MeanDTP, res.AvgNeighbors, res.Events, res.Trials}); err != nil {
			return err
		}
	} else {
		if h.Grid {
			fmt.Fprintf(w, "replay of %s: %dx%d grid, %.0f m blocks, %d vehicles, seed %d, %d trial(s) × %d window(s) × %.2f s, demand %.0f Mb/neighbor\n",
				path, h.GridRows, h.GridCols, h.GridBlockM, h.GridVehicles, h.Seed, h.Trials, h.Windows, h.WindowSec, h.DemandBits/1e6)
		} else {
			fmt.Fprintf(w, "replay of %s: %.0f vpl, seed %d, %d trial(s) × %d window(s) × %.2f s, demand %.0f Mb/neighbor\n",
				path, h.DensityVPL, h.Seed, h.Trials, h.Windows, h.WindowSec, h.DemandBits/1e6)
		}
		fmt.Fprintf(w, "%-10s %-8s %-8s %-8s %-8s %-10s\n", "protocol", "OCR", "ATP", "DTP", "avg |N|", "DES events")
		fmt.Fprintf(w, "%-10s %-8.3f %-8.3f %-8.3f %-8.1f %-10d\n",
			res.Protocol, res.Summary.MeanOCR, res.Summary.MeanATP, res.Summary.MeanDTP,
			res.AvgNeighbors, res.Events)
	}
	if !o.verify {
		return nil
	}
	div, err := rl.Verify(o.workers)
	if err != nil {
		return err
	}
	if div != nil {
		return fmt.Errorf("%s: %s", path, div)
	}
	fmt.Fprintf(w, "verified: %d trial(s) × %d window(s) re-executed; every digest matches the log\n", h.Trials, h.Windows)
	return nil
}
