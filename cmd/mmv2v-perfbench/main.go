// Command mmv2v-perfbench is the repository's end-to-end benchmark. It runs
// one named workload per process, checks every simulated output against
// stored digests, and prints its metrics — as a table, then as one JSON
// line — for a run of about -seconds host seconds:
//
//	mmv2v-perfbench -workload road-fig9 -seed 1 -seconds 30 -trace 0
//
// -trace 0 measures the end-to-end metrics with nothing but timestamps
// around the simulator. -trace 1 runs a fixed slice of the same workload
// twice — once untraced, once through a replay that records a span around
// every call into a layer, with the statistics registry and a CPU profile
// on — checks that both produce identical results, and reports the
// per-layer metrics. run.sh builds and runs it; README.md lists the
// workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"syscall"
	"time"
)

//go:embed expected.json
var expectedJSON []byte

// expectations maps a workload to the digests of each pool entry: one per
// trial for protocol workloads (cell-major), and the link-table and
// link-sample digests for the city drive.
type expectations map[string][][]string

// bench is one workload.
type bench interface {
	// pool is how many scenarios the workload's runs draw from.
	pool() int
	// measure runs the untraced workload for about seconds host seconds.
	measure(seed uint64, seconds float64, exp [][]string) result
	// trace runs the fixed traced slice and returns per-layer metrics.
	trace(seed uint64, exp [][]string, spansPath string) result
	// record computes the expected digests of pool entry j.
	record(j int) ([]string, error)
}

// lookup returns a workload by name. Each pool holds about one run's worth
// of scenarios (a 30 s run is ~4 road-fig9 batches, ~12 road-faults trials,
// ~6 city drives): per-scenario cost varies by 15–25%, so runs with
// different seeds must share most of their scenarios to stay comparable.
// The traced slice, run twice, takes no longer than one untraced run.
func lookup(name string) (bench, bool) {
	switch name {
	case "road-fig9":
		return roadBench{w: roadWorkload{density: 15, cells: fig9Cells(), trials: 2}, pooled: 4, traced: 1}, true
	case "road-faults":
		return roadBench{w: roadWorkload{density: 6, cells: fig9Cells()[:1], trials: 1, workers: 1, faults: true, window: 0.25}, pooled: 12, traced: 4}, true
	case "city-drive":
		return cityBench{w: cityWorkload{vehicles: 10000, ticks: 300, refreshTicks: 20}, pooled: 6, traced: 2}, true
	}
	return nil, false
}

var workloadNames = []string{"road-fig9", "road-faults", "city-drive"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are human-readable lines printed above the JSON.
	notes []string
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a problem that makes the run's output incorrect.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.notef("FAIL: "+format, args...)
}

// checkDigest compares one produced digest with the stored one; a missing
// expectation counts as a mismatch.
func checkDigest(exp [][]string, j, k int, got uint64) bool {
	return j < len(exp) && k < len(exp[j]) && exp[j][k] == hexDigest(got)
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmv2v-perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: road-fig9, road-faults or city-drive")
	seed := fs.Uint64("seed", 1, "workload seed; it picks the run's scenarios from the workload's pool")
	seconds := fs.Float64("seconds", 30, "host seconds the untraced run measures")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer slice instead of the end-to-end measurement")
	record := fs.String("record", "", "recompute the workload's expected digests into this JSON file instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b, ok := lookup(*name)
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "mmv2v-perfbench: need -workload (%v), -seconds > 0 and -trace 0|1\n", workloadNames)
		return 2
	}
	var all expectations
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		fmt.Fprintf(stderr, "mmv2v-perfbench: expected.json: %v\n", err)
		return 1
	}
	if *record != "" {
		if err := recordDigests(*record, *name, b, stderr); err != nil {
			fmt.Fprintf(stderr, "mmv2v-perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	var res result
	if *traced == 1 {
		res = b.trace(*seed, all[*name], fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", *name, *seed))
	} else {
		res = b.measure(*seed, *seconds, all[*name])
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	names := make([]string, 0, len(res.Metrics))
	//mmv2v:sorted names are sorted before printing
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "mmv2v-perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// recordDigests recomputes every pool entry's digests for one workload and
// rewrites the expectations file with them, keeping other workloads'.
func recordDigests(path, name string, b bench, log io.Writer) error {
	all := expectations{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	entries := make([][]string, b.pool())
	for j := range entries {
		start := time.Now()
		d, err := b.record(j)
		if err != nil {
			return fmt.Errorf("%s pool entry %d: %w", name, j, err)
		}
		entries[j] = d
		fmt.Fprintf(log, "%s pool entry %d (%.3g s): %v\n", name, j, time.Since(start).Seconds(), d)
	}
	all[name] = entries
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
