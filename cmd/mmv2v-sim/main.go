// Command mmv2v-sim runs one OHM scenario and prints the paper's metrics.
//
// Usage:
//
//	mmv2v-sim -density 15 -protocol mmv2v -trials 3 -seconds 1
//	mmv2v-sim -density 20 -faults 0.5            # stress at half intensity
//	mmv2v-sim -world grid -grid-vehicles 240     # protocols on a city grid
//	mmv2v-sim -world grid -drive 10              # 10k-vehicle scale drive
//
// Protocols: mmv2v (default), rop, ad, oracle, all.
//
// -world grid replaces the paper's straight road with a Manhattan road
// network (-rows × -cols intersections, -block m blocks). -drive N skips
// the radio protocol entirely and drives 5 ms traffic steps plus link-table
// refreshes every -refresh-ms simulated milliseconds for N simulated
// seconds, reporting link-table size and wall-clock per refresh — the scale
// mode for city-sized fleets (default 10000 vehicles).
//
// -faults scales the standard fault profile (control loss, blockage bursts,
// radio churn, slot jitter; see internal/faults) by the given intensity;
// 0 (the default) is a clean channel. Trials are crash-isolated: a trial
// that panics is reported on stderr as a TrialError with a repro command,
// while the remaining trials still pool. Every trial is a pure function of
// its seed, so the repro command re-raises the crash, and an interrupted
// run is recovered by running it again. -runlog <file> records a
// replayable run log of the whole pooled run — re-render or verify it with
// mmv2v-replay. See DESIGN.md §11.
//
// -stats <path> records per-layer statistics (discovery sweeps, control
// frames, SINR histograms, airtime per MCS, ...) and writes them to the
// path as JSON Lines — or CSV when the path ends in .csv — plus a summary
// table; see DESIGN.md §9 for the schema. -cpuprofile/-memprofile write
// pprof profiles of the run, -drive included.
//
// -series <path> writes the registry's per-window deltas, sampled at every
// window boundary, as JSON Lines (CSV when the path ends in .csv), one
// scope per protocol. -http <addr> serves live run telemetry — /healthz,
// /metrics, /series, /progress and /debug/pprof/ — while the run executes
// and changes nothing on stdout. Both record statistics exactly as -stats
// does (part of the scenario fingerprint); each flag only chooses what is
// written. Under -drive, which runs no protocol and so takes none of
// -stats, -series, -trace or -runlog, the HTTP surface reports
// per-refresh link-table gauges instead. See DESIGN.md §9 for the
// contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"mmv2v"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mmv2v-sim:", err)
		os.Exit(1)
	}
}

// options holds the parsed command line.
type options struct {
	density   float64
	protocol  string
	seed      uint64
	trials    int
	seconds   float64
	windows   int
	demand    float64
	k, m, c   int
	jsonOut   bool
	traceOut  string
	intensity float64
	statsOut  string
	cpuOut    string
	memOut    string
	runlogOut string
	worldKind string
	gridRows  int
	gridCols  int
	gridBlock float64
	gridVeh   int
	driveSec  float64
	refreshMs float64
	seriesOut string
	httpAddr  string
}

// bindFlags registers every command-line flag on fs and returns the options
// they fill once fs is parsed.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.Float64Var(&o.density, "density", 15, "traffic density in vehicles/lane/km (paper: 15-30)")
	fs.StringVar(&o.protocol, "protocol", "mmv2v", "protocol: mmv2v, rop, ad, oracle, all")
	fs.Uint64Var(&o.seed, "seed", 1, "scenario seed")
	fs.IntVar(&o.trials, "trials", 1, "independent trials to pool")
	fs.Float64Var(&o.seconds, "seconds", 1, "measurement window length (s)")
	fs.IntVar(&o.windows, "windows", 1, "number of consecutive windows")
	fs.Float64Var(&o.demand, "demand", 200e6, "HRIE task demand per neighbor per window (bits)")
	fs.IntVar(&o.k, "K", 3, "mmV2V discovery rounds")
	fs.IntVar(&o.m, "M", 40, "mmV2V negotiation slots")
	fs.IntVar(&o.c, "C", 7, "mmV2V CNS hash constant")
	fs.BoolVar(&o.jsonOut, "json", false, "emit per-protocol summaries as JSON instead of a table")
	fs.StringVar(&o.traceOut, "trace", "", "write protocol events as JSON Lines to this file")
	fs.Float64Var(&o.intensity, "faults", 0, "fault-injection intensity: scales the standard stress profile (0 = clean channel, 1 = full profile)")
	fs.StringVar(&o.statsOut, "stats", "", "record per-layer statistics and write them to this file (CSV if the path ends in .csv, JSON Lines otherwise)")
	fs.StringVar(&o.cpuOut, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&o.memOut, "memprofile", "", "write a pprof heap profile at the end of the run to this file")
	fs.StringVar(&o.runlogOut, "runlog", "", "write a replayable run log to this file (requires a single -protocol; verify or re-render it with mmv2v-replay)")
	fs.StringVar(&o.worldKind, "world", "road", "mobility substrate: road (straight 1 km road) or grid (Manhattan road network)")
	fs.IntVar(&o.gridRows, "rows", 0, "grid world: intersection rows (0 = 3 for protocol runs, 12 for -drive)")
	fs.IntVar(&o.gridCols, "cols", 0, "grid world: intersection columns (0 = 3 for protocol runs, 12 for -drive)")
	fs.Float64Var(&o.gridBlock, "block", 0, "grid world: block edge length in m (0 = 200 for protocol runs, 500 for -drive)")
	fs.IntVar(&o.gridVeh, "grid-vehicles", 0, "grid world: vehicle count (0 = 240 for protocol runs, 10000 for -drive)")
	fs.Float64Var(&o.driveSec, "drive", 0, "drive traffic + link refreshes for this many simulated seconds without a protocol (grid world scale mode)")
	fs.Float64Var(&o.refreshMs, "refresh-ms", 100, "scale drive: link-table refresh period in simulated ms (traffic always steps at 5 ms)")
	fs.StringVar(&o.seriesOut, "series", "", "record per-layer statistics and write their per-window deltas to this file (CSV if the path ends in .csv, JSON Lines otherwise)")
	fs.StringVar(&o.httpAddr, "http", "", "serve live run telemetry (/healthz /metrics /series /progress /debug/pprof/) on this address; records per-layer statistics like -stats")
	return o
}

// protocolNames lists the -protocol values in the order -protocol all runs
// them.
var protocolNames = []string{"mmv2v", "rop", "ad", "oracle"}

// check enforces the flag-combination rules before anything runs. It reads
// only the options, so every rule is table-tested without running a
// simulation.
func (o *options) check() error {
	if o.worldKind != "road" && o.worldKind != "grid" {
		return fmt.Errorf("unknown world %q (want road or grid)", o.worldKind)
	}
	if o.driveSec > 0 {
		if o.worldKind != "grid" {
			return fmt.Errorf("-drive requires -world grid")
		}
		for _, f := range []struct{ flag, path string }{
			{"-stats", o.statsOut}, {"-series", o.seriesOut}, {"-trace", o.traceOut}, {"-runlog", o.runlogOut},
		} {
			if f.path != "" {
				return fmt.Errorf("-drive runs no protocol and writes no %s output; drop %[1]s", f.flag)
			}
		}
		return nil
	}
	if o.intensity < 0 {
		return fmt.Errorf("negative fault intensity %v", o.intensity)
	}
	if o.protocol != "all" && !slices.Contains(protocolNames, o.protocol) {
		return fmt.Errorf("unknown protocol %q", o.protocol)
	}
	if o.runlogOut != "" {
		if o.protocol == "all" {
			return fmt.Errorf("-runlog needs a single -protocol, not all")
		}
		if o.statsOut != "" {
			return fmt.Errorf("-runlog records metric tables, not the -stats registry; drop one of the two")
		}
		if o.seriesOut != "" || o.httpAddr != "" {
			return fmt.Errorf("-runlog's recorded recipe cannot reproduce the statistics registry; drop -series/-http")
		}
	}
	return nil
}

// scenario assembles the protocol-run scenario the options describe.
func (o *options) scenario() mmv2v.ScenarioConfig {
	cfg := mmv2v.DefaultScenario(o.density, o.seed)
	if o.worldKind == "grid" {
		grid := gridConfig(o.gridRows, o.gridCols, o.gridBlock, o.gridVeh, protocolGridDefaults)
		cfg = mmv2v.GridScenario(grid, o.seed)
	}
	// -series and -http read the same registry -stats writes out, so any of
	// the three records it; Stats is scenario-defining (fingerprint).
	cfg.Stats = o.statsOut != "" || o.seriesOut != "" || o.httpAddr != ""
	cfg.WindowSec = o.seconds
	cfg.Windows = o.windows
	cfg.DemandBits = o.demand
	if o.intensity > 0 {
		profile := mmv2v.DefaultFaultConfig().Scale(o.intensity)
		cfg.Faults = &profile
	}
	return cfg
}

func run() (err error) {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	if err := o.check(); err != nil {
		return err
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
		fmt.Fprintf(os.Stderr, "mmv2v-sim: live introspection on http://%s\n", addr)
	}
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
	if o.driveSec > 0 {
		if err := driveGrid(gridConfig(o.gridRows, o.gridCols, o.gridBlock, o.gridVeh, driveGridDefaults), o.seed, o.driveSec, o.refreshMs, srv); err != nil {
			return err
		}
		return writeMemProfile(o.memOut)
	}

	cfg := o.scenario()
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		// Trace events stream to f during the run; surface a close error
		// (lost events) unless the run already failed for another reason.
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		cfg.Trace = mmv2v.NewTraceRecorder(mmv2v.NewTraceJSONL(f))
	}

	params := mmv2v.DefaultParams()
	params.K = o.k
	params.M = o.m
	params.C = o.c
	if err := params.Validate(); err != nil {
		return err
	}

	factories := map[string]mmv2v.Factory{
		"mmv2v":  mmv2v.MMV2V(params),
		"rop":    mmv2v.ROP(mmv2v.DefaultROPParams()),
		"ad":     mmv2v.AD(mmv2v.DefaultADParams()),
		"oracle": mmv2v.Oracle(params),
	}
	names := []string{o.protocol}
	if o.protocol == "all" {
		names = protocolNames
	}

	if !o.jsonOut {
		if cfg.Grid != nil {
			fmt.Printf("scenario: %dx%d grid, %.0f m blocks, %d vehicles, seed %d, %d trial(s) × %d window(s) × %.2f s, demand %.0f Mb/neighbor\n",
				cfg.Grid.Rows, cfg.Grid.Cols, cfg.Grid.BlockM, cfg.Grid.Vehicles, o.seed, o.trials, o.windows, o.seconds, o.demand/1e6)
		} else {
			fmt.Printf("scenario: %.0f vpl, seed %d, %d trial(s) × %d window(s) × %.2f s, demand %.0f Mb/neighbor\n",
				o.density, o.seed, o.trials, o.windows, o.seconds, o.demand/1e6)
		}
		fmt.Printf("%-10s %-8s %-8s %-8s %-8s %-10s\n", "protocol", "OCR", "ATP", "DTP", "avg |N|", "DES events")
	}
	type jsonRow struct {
		Protocol     string  `json:"protocol"`
		DensityVPL   float64 `json:"density_vpl"`
		OCR          float64 `json:"ocr"`
		ATP          float64 `json:"atp"`
		DTP          float64 `json:"dtp"`
		AvgNeighbors float64 `json:"avg_neighbors"`
		Events       uint64  `json:"des_events"`
	}
	var rows []jsonRow
	var statsRows []mmv2v.StatsRow
	var seriesRows []mmv2v.SeriesRow
	if srv != nil {
		totalTrials := len(names) * o.trials
		srv.SetTotals(len(names), totalTrials, totalTrials*o.windows)
	}
	for _, name := range names {
		pcfg := cfg
		if srv != nil {
			// Each protocol is one cell; trial indices restart per cell, so
			// StartRun drops the previous protocol's accumulators.
			srv.StartRun(name)
			pcfg.Monitor = srv
		}
		var res *mmv2v.Result
		var err error
		if o.runlogOut != "" {
			res, err = mmv2v.RunTrialsLogged(pcfg, factories[name], o.trials, runLogHeader(name, cfg, o), o.runlogOut)
		} else {
			res, err = mmv2v.RunTrials(pcfg, factories[name], o.trials)
		}
		if err != nil {
			return err
		}
		if o.statsOut != "" {
			statsRows = append(statsRows, mmv2v.StatsRows(res.Obs, res.Protocol)...)
		}
		if o.seriesOut != "" {
			seriesRows = append(seriesRows, mmv2v.SeriesRows(res.Series.Points(), res.Protocol)...)
		}
		if srv != nil {
			srv.CellDone(res.Protocol)
		}
		for _, te := range res.Failures {
			fmt.Fprintf(os.Stderr, "mmv2v-sim: %v\n", te)
		}
		if len(res.Failures) > 0 {
			fmt.Fprintf(os.Stderr, "mmv2v-sim: %s: %d/%d trial(s) pooled (%d lost)\n",
				res.Protocol, res.Trials, o.trials, len(res.Failures))
		}
		if o.jsonOut {
			rows = append(rows, jsonRow{
				Protocol:     res.Protocol,
				DensityVPL:   o.density,
				OCR:          res.Summary.MeanOCR,
				ATP:          res.Summary.MeanATP,
				DTP:          res.Summary.MeanDTP,
				AvgNeighbors: res.AvgNeighbors,
				Events:       res.Events,
			})
			continue
		}
		fmt.Printf("%-10s %-8.3f %-8.3f %-8.3f %-8.1f %-10d\n",
			res.Protocol, res.Summary.MeanOCR, res.Summary.MeanATP, res.Summary.MeanDTP,
			res.AvgNeighbors, res.Events)
	}
	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
	}
	if o.statsOut != "" {
		if err := writeStats(o.statsOut, statsRows, o.jsonOut); err != nil {
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

// runLogHeader assembles the run-log scenario recipe from the CLI flags;
// RunTrialsLogged cross-checks it against the running config's fingerprint
// before simulating anything, so a recipe that would not replay this run
// fails loudly up front.
func runLogHeader(protocol string, cfg mmv2v.ScenarioConfig, o *options) mmv2v.RunLogHeader {
	h := mmv2v.RunLogHeader{
		Protocol:       protocol,
		K:              o.k,
		M:              o.m,
		C:              o.c,
		DensityVPL:     o.density,
		Seed:           o.seed,
		Trials:         o.trials,
		WindowSec:      o.seconds,
		Windows:        o.windows,
		DemandBits:     o.demand,
		FaultIntensity: o.intensity,
	}
	if cfg.Grid != nil {
		h.Grid = true
		h.DensityVPL = 0
		h.GridRows, h.GridCols = cfg.Grid.Rows, cfg.Grid.Cols
		h.GridBlockM = cfg.Grid.BlockM
		h.GridVehicles = cfg.Grid.Vehicles
	}
	return h
}

// writeStats exports the pooled statistics rows to path — CSV when the
// suffix asks for it, JSON Lines otherwise — and prints the summary table:
// to stdout normally, to stderr under -json so stdout stays parseable.
func writeStats(path string, rows []mmv2v.StatsRow, jsonMode bool) error {
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
	out := os.Stdout
	if jsonMode {
		out = os.Stderr
	}
	fmt.Fprintln(out)
	mmv2v.WriteStatsSummary(out, rows)
	return nil
}

// writeSeries exports the per-window series rows to path — CSV when the
// suffix asks for it, JSON Lines otherwise. Unlike -stats there is no
// summary table: the series is a machine-readable artifact, and stdout
// stays byte-identical with or without it.
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
	fmt.Fprintf(os.Stderr, "mmv2v-sim: wrote %d series rows to %s\n", len(rows), path)
	return nil
}

// gridDefaults are the per-mode fallbacks for unset grid geometry flags:
// protocol runs get a dense downtown grid so neighborhoods match the
// paper's 5–8 band at 240 vehicles; the scale drive gets the full city.
type gridDefaults struct {
	rows, cols int
	blockM     float64
	vehicles   int
}

var (
	protocolGridDefaults = gridDefaults{rows: 3, cols: 3, blockM: 200, vehicles: 240}
	driveGridDefaults    = gridDefaults{rows: 12, cols: 12, blockM: 500, vehicles: 10000}
)

// gridConfig assembles the grid world from the CLI flags; zero-valued flags
// fall back to the mode's defaults.
func gridConfig(rows, cols int, blockM float64, vehicles int, def gridDefaults) mmv2v.GridConfig {
	if rows == 0 {
		rows = def.rows
	}
	if cols == 0 {
		cols = def.cols
	}
	if blockM <= 0 {
		blockM = def.blockM
	}
	if vehicles == 0 {
		vehicles = def.vehicles
	}
	g := mmv2v.DefaultGridConfig(vehicles)
	g.Rows, g.Cols = rows, cols
	g.BlockM = blockM
	return g
}

// driveGrid is the protocol-free scale mode: advance traffic at the 5 ms
// mobility cadence, refresh the link table every refreshMs simulated
// milliseconds, and report table size plus wall-clock per refresh. All
// timing lives here in the CLI; the library loop is deterministic. With a
// live server attached, every refresh publishes a fresh gauge snapshot and
// tick progress, so /metrics and /progress track a 10k drive in flight.
func driveGrid(grid mmv2v.GridConfig, seed uint64, seconds, refreshMs float64, srv *mmv2v.LiveServer) error {
	buildStart := time.Now()
	g, err := mmv2v.NewGridWorld(grid, seed)
	if err != nil {
		return err
	}
	fmt.Printf("grid world: %dx%d intersections, %.0f m blocks, %d vehicles (built in %v)\n",
		grid.Rows, grid.Cols, grid.BlockM, g.NumVehicles(), time.Since(buildStart).Round(time.Millisecond))
	ticks := int(seconds / g.TickSeconds())
	every := max(int(refreshMs/(g.TickSeconds()*1000)), 1)
	refreshes := 0
	var inRefresh time.Duration
	start := time.Now()
	for t := 1; t <= ticks; t++ {
		g.StepTraffic()
		if t%every == 0 {
			rs := time.Now()
			g.RefreshLinks()
			inRefresh += time.Since(rs)
			refreshes++
			if srv != nil {
				publishDrive(srv, g, t, ticks, refreshes)
			}
		}
	}
	elapsed := time.Since(start)
	perRefresh := inRefresh / time.Duration(max(refreshes, 1))
	fmt.Printf("drove %.1f s simulated (%d ticks, link refresh every %d ms) in %v wall (%.1fx real time)\n",
		float64(ticks)*g.TickSeconds(), ticks, every*int(g.TickSeconds()*1000),
		elapsed.Round(time.Millisecond), seconds/elapsed.Seconds())
	fmt.Printf("%d link refreshes, %.2f ms/refresh\n", refreshes, float64(perRefresh.Microseconds())/1000)
	fmt.Printf("final link table: %d directed entries, avg |N| %.1f\n", g.TotalLinks(), g.AvgNeighbors())
	return nil
}

// publishDrive pushes the drive's current link-table shape to the live
// server: one snapshot per refresh, rows pre-sorted by name so /metrics is
// byte-stable between refreshes. Tick counts stand in for windows in
// /progress — the drive has no measurement windows.
func publishDrive(srv *mmv2v.LiveServer, g *mmv2v.GridWorld, tick, ticks, refreshes int) {
	avgN := g.AvgNeighbors()
	links := float64(g.TotalLinks())
	rows := []mmv2v.StatsRow{
		{Name: "drive.avg_neighbors", Kind: "gauge", Count: 1, Sum: avgN, Min: avgN, Max: avgN},
		{Name: "drive.links", Kind: "gauge", Count: 1, Sum: links, Min: links, Max: links},
		{Name: "drive.refreshes", Kind: "counter", Count: uint64(refreshes)},
		{Name: "drive.ticks", Kind: "counter", Count: uint64(tick)},
	}
	srv.Publish(rows, nil, mmv2v.ProgressState{Label: "drive", WindowsDone: tick, WindowsTotal: ticks})
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
