// Command mmv2v-experiments regenerates the paper's evaluation figures.
//
// Usage:
//
//	mmv2v-experiments -fig 9 -trials 3          # Fig. 9 comparison
//	mmv2v-experiments -fig all -trials 2        # everything
//	mmv2v-experiments -fig t2                   # Theorem 2 validation
//	mmv2v-experiments -fig ablation             # design-choice ablation
//	mmv2v-experiments -fig city                 # protocols on a city grid
//
// Results print as text tables with the same rows/series the paper plots.
// The paper repeats each experiment 100 times; -trials trades fidelity for
// runtime (full Fig. 9 at -trials 3 takes a few minutes).
//
// Trials run on a bounded worker pool; -workers caps the concurrency
// (0, the default, uses all CPU cores). Tables are bit-identical for any
// -workers value: trials are independently seeded and merged in trial
// order.
//
// -progress prints per-cell completion with elapsed wall-clock time to
// stderr while the tables build. -stats <path> additionally records
// per-layer statistics for the figures that support them (9 and the fault
// sweep) and writes them to the path as JSON Lines — or CSV when the path
// ends in .csv — with a summary table on stderr; the stdout tables are
// byte-identical with or without it. -cpuprofile/-memprofile write pprof
// profiles of the whole run.
//
// -series <path> records windowed per-layer samples for the same figures
// (9 and the fault sweep) as JSON Lines — or CSV when the path ends in
// .csv. -stats and -series with a figure that records neither are usage
// errors. -http <addr> serves live telemetry while the figures build:
// /healthz, /progress (completed cells; totals are unknown up front, so no
// ETA) and /debug/pprof/. The stdout tables are byte-identical with or
// without either flag.
//
// Every flag is checked before anything runs. The exit status is 0 on
// success, 1 when a run fails and 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"mmv2v"
)

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	if err := o.check(); err != nil {
		fmt.Fprintln(os.Stderr, "mmv2v-experiments:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmv2v-experiments:", err)
		os.Exit(1)
	}
}

// options holds the parsed command line.
type options struct {
	fig       string
	trials    int
	seed      uint64
	format    string
	workers   int
	faults    bool
	progress  bool
	statsOut  string
	seriesOut string
	httpAddr  string
	cpuOut    string
	memOut    string
}

// bindFlags registers every command-line flag on fs and returns the options
// they fill once fs is parsed.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.fig, "fig", "all", "figure to regenerate: 6, 7, 8, 9, t2, ablation, trucks, warmup, faults, city, all")
	fs.IntVar(&o.trials, "trials", 0, "trials per data point (0 = per-figure default)")
	fs.Uint64Var(&o.seed, "seed", 1, "experiment seed")
	fs.StringVar(&o.format, "format", "table", "output format: table or csv")
	fs.IntVar(&o.workers, "workers", 0, "max concurrent trial simulations (0 = all CPU cores); results are identical for any value")
	fs.BoolVar(&o.faults, "faults", false, "shorthand for -fig faults: the graceful-degradation fault sweep")
	fs.BoolVar(&o.progress, "progress", false, "print per-cell completion progress with elapsed wall-clock time to stderr")
	fs.StringVar(&o.statsOut, "stats", "", "record per-layer statistics (figures 9 and faults) and write them to this file (CSV if the path ends in .csv, JSON Lines otherwise)")
	fs.StringVar(&o.seriesOut, "series", "", "record windowed per-layer samples (figures 9 and faults) and write them to this file (CSV if the path ends in .csv, JSON Lines otherwise)")
	fs.StringVar(&o.httpAddr, "http", "", "serve live run telemetry (/healthz /progress /debug/pprof/) on this address")
	fs.StringVar(&o.cpuOut, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&o.memOut, "memprofile", "", "write a pprof heap profile at the end of the run to this file")
	return o
}

// allFigures is the -fig all composition. It keeps its pre-fault-layer
// composition so full-suite output stays byte-identical; run the fault
// sweep with -fig faults/-faults and the city-grid comparison with
// -fig city.
var allFigures = []string{"t2", "6", "7", "8", "9", "ablation", "trucks", "warmup"}

// statsFigures are the figures whose runs record -stats and -series.
var statsFigures = []string{"9", "faults"}

// figures resolves -fig and the -faults shorthand to the figures to run,
// in order.
func (o *options) figures() []string {
	switch {
	case o.faults:
		return []string{"faults"}
	case o.fig == "all":
		return allFigures
	}
	return []string{o.fig}
}

// check enforces the flag rules before anything runs. It reads only the
// options, so every rule is table-tested without running a figure.
func (o *options) check() error {
	if o.format != "table" && o.format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", o.format)
	}
	if o.workers < 0 {
		return fmt.Errorf("negative worker count %d", o.workers)
	}
	figs := o.figures()
	for _, f := range figs {
		if _, ok := runners[f]; !ok {
			return fmt.Errorf("unknown figure %q (want 6, 7, 8, 9, t2, ablation, trucks, warmup, faults, city, all)", f)
		}
	}
	if o.statsOut != "" || o.seriesOut != "" {
		if !slices.ContainsFunc(figs, func(f string) bool { return slices.Contains(statsFigures, f) }) {
			return fmt.Errorf("figure %s records no -stats/-series (want 9, faults or all)", figs[0])
		}
	}
	return nil
}

// sweep applies the command line to a figure's default Run: the seed, the
// worker bound, the progress callback and, when set, -trials.
func (o *options) sweep(def mmv2v.ExperimentRun, progress func(string)) mmv2v.ExperimentRun {
	def.Seed = o.seed
	def.Workers = o.workers
	def.Progress = progress
	if o.trials > 0 {
		def.Trials = o.trials
	}
	return def
}

// result is what every figure prints; all but warmup also write CSV.
type result interface{ WriteTable(io.Writer) }

// runners runs each -fig value with its default options under the command
// line; progress reports completed cells.
var runners = map[string]func(o *options, progress func(string)) (result, error){
	"6": func(o *options, progress func(string)) (result, error) {
		opts := mmv2v.DefaultFig6Options()
		opts.Run = o.sweep(opts.Run, progress)
		return mmv2v.ReproduceFig6(opts)
	},
	"7": func(o *options, progress func(string)) (result, error) {
		opts := mmv2v.DefaultFig7Options()
		opts.Run = o.sweep(opts.Run, progress)
		return mmv2v.ReproduceFig7(opts)
	},
	"8": func(o *options, progress func(string)) (result, error) {
		opts := mmv2v.DefaultFig8Options()
		opts.Run = o.sweep(opts.Run, progress)
		return mmv2v.ReproduceFig8(opts)
	},
	"9": func(o *options, progress func(string)) (result, error) {
		opts := mmv2v.DefaultFig9Options()
		opts.Run = o.sweep(opts.Run, progress)
		opts.Stats = o.statsOut != "" || o.seriesOut != ""
		return mmv2v.ReproduceFig9(opts)
	},
	"t2": func(o *options, _ func(string)) (result, error) {
		opts := mmv2v.DefaultTheorem2Options()
		opts.Seed = o.seed
		return mmv2v.ValidateTheorem2(opts)
	},
	"warmup": func(o *options, progress func(string)) (result, error) {
		opts := mmv2v.DefaultWarmupOptions()
		opts.Run = o.sweep(opts.Run, progress)
		return mmv2v.RunWarmup(opts)
	},
	"trucks": func(o *options, progress func(string)) (result, error) {
		opts := mmv2v.DefaultTrucksOptions()
		opts.Run = o.sweep(opts.Run, progress)
		return mmv2v.RunTrucks(opts)
	},
	"faults": func(o *options, progress func(string)) (result, error) {
		opts := mmv2v.DefaultFaultsOptions()
		opts.Run = o.sweep(opts.Run, progress)
		opts.Stats = o.statsOut != "" || o.seriesOut != ""
		return mmv2v.RunFaultSweep(opts)
	},
	"city": func(o *options, progress func(string)) (result, error) {
		opts := mmv2v.DefaultCityOptions()
		opts.Run = o.sweep(opts.Run, progress)
		return mmv2v.ReproduceCity(opts)
	},
	"ablation": func(o *options, progress func(string)) (result, error) {
		opts := mmv2v.DefaultAblationOptions()
		opts.Run = o.sweep(opts.Run, progress)
		return mmv2v.RunAblation(opts)
	},
}

// footer is the text a figure's table ends with.
func footer(res result) string {
	switch r := res.(type) {
	case *mmv2v.Fig6Result:
		return fmt.Sprintf("best C per scenario: %v (paper: C ≈ |N_i|, C = 7 as a good practice)\n\n", r.BestC())
	case *mmv2v.Fig7Result:
		return fmt.Sprintf("best K: %d (paper: K = 3)\n\n", r.Best())
	case *mmv2v.Fig8Result:
		return fmt.Sprintf("best M: %d (paper: M = 40)\n\n", r.Best())
	case *mmv2v.Fig9Result:
		return "paper reference @15 vpl: mmV2V 0.742, ROP 0.319, 802.11ad 0.465\n" +
			"paper reference @30 vpl: mmV2V 0.576, ROP 0.227, 802.11ad 0.192\n\n"
	}
	return "\n"
}

func run(o *options, w io.Writer) error {
	if o.cpuOut != "" {
		f, err := os.Create(o.cpuOut)
		if err != nil {
			return err
		}
		// The profile is flushed by StopCPUProfile; a close error here can
		// only lose an artifact the run already reported on, so drop it
		// explicitly.
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var srv *mmv2v.LiveServer
	if o.httpAddr != "" {
		srv = mmv2v.NewLiveServer()
		addr, err := srv.Start(o.httpAddr)
		if err != nil {
			return err
		}
		// The snapshot endpoints stay serveable until the process exits; a
		// close error here can only race process teardown, so drop it.
		defer func() { _ = srv.Close() }()
		fmt.Fprintln(os.Stderr, "mmv2v-experiments: live introspection on http://"+addr)
	}
	// Progress callbacks fire from concurrent experiment cells; serialize
	// the printer. Wall-clock time is measured here, never inside the
	// deterministic experiment layer. The live server keeps its own lock,
	// so CellDone rides the same callback without widening the mutex.
	runStart := time.Now()
	var progress func(cell string)
	if o.progress || srv != nil {
		var mu sync.Mutex
		progress = func(cell string) {
			if srv != nil {
				srv.CellDone(cell)
			}
			if o.progress {
				mu.Lock()
				defer mu.Unlock()
				fmt.Fprintf(os.Stderr, "[%v] %s\n", time.Since(runStart).Round(time.Millisecond), cell)
			}
		}
	}
	csvMode := o.format == "csv"
	var statsRows []mmv2v.StatsRow
	var seriesRows []mmv2v.SeriesRow
	for _, name := range o.figures() {
		start := time.Now()
		res, err := runners[name](o, progress)
		if err == nil {
			err = emit(w, res, csvMode)
		}
		if err != nil {
			return fmt.Errorf("figure %s: %w", name, err)
		}
		if ex, ok := res.(interface {
			StatsRows() []mmv2v.StatsRow
			SeriesRows() []mmv2v.SeriesRow
		}); ok {
			statsRows = append(statsRows, ex.StatsRows()...)
			seriesRows = append(seriesRows, ex.SeriesRows()...)
		}
		if !csvMode {
			fmt.Fprintf(w, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	if o.statsOut != "" {
		if err := writeStats(o.statsOut, statsRows); err != nil {
			return err
		}
	}
	if o.seriesOut != "" {
		if err := writeSeries(o.seriesOut, seriesRows); err != nil {
			return err
		}
	}
	return writeMemProfile(o.memOut)
}

// emit prints a figure: its CSV in csv mode, otherwise (and for warmup,
// which has no CSV) its table and footer.
func emit(w io.Writer, res result, csvMode bool) error {
	if c, ok := res.(interface{ WriteCSV(io.Writer) error }); ok && csvMode {
		return c.WriteCSV(w)
	}
	res.WriteTable(w)
	fmt.Fprint(w, footer(res))
	return nil
}

// writeStats exports the collected statistics rows to path — CSV when the
// suffix asks for it, JSON Lines otherwise — and prints the summary table
// to stderr so the stdout figure tables stay byte-identical.
func writeStats(path string, rows []mmv2v.StatsRow) error {
	mmv2v.SortStatsRows(rows)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = mmv2v.WriteStatsCSV(f, rows)
	} else {
		err = mmv2v.WriteStatsJSONL(f, rows)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr)
	mmv2v.WriteStatsSummary(os.Stderr, rows)
	return nil
}

// writeSeries exports the collected per-window series rows to path — CSV
// when the suffix asks for it, JSON Lines otherwise. No summary table: the
// series is a machine-readable artifact, and stdout stays byte-identical
// with or without it.
func writeSeries(path string, rows []mmv2v.SeriesRow) error {
	mmv2v.SortSeriesRows(rows)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = mmv2v.WriteSeriesCSV(f, rows)
	} else {
		err = mmv2v.WriteSeriesJSONL(f, rows)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mmv2v-experiments: wrote %d series rows to %s\n", len(rows), path)
	return nil
}

// writeMemProfile snapshots the heap (after forcing a GC so the profile
// reflects live objects) when -memprofile asked for one.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
