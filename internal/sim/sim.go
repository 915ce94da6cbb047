// Package sim runs OHM protocols over the simulated road + channel: it owns
// the scenario lifecycle (traffic warm-up, the 5 ms position/link refresh,
// the 20 ms protocol frame loop, 1 s measurement windows) and the HRIE task
// bookkeeping, and reduces runs to the paper's per-vehicle metrics.
//
// Protocols (mmV2V in internal/core, the ROP and IEEE 802.11ad baselines in
// internal/baseline) plug in through the Protocol interface and the shared
// Env, so all candidates are evaluated under identical traffic, channel and
// task conditions — the comparison discipline of Sec. IV.
package sim

import (
	"fmt"
	"math"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/faults"
	"mmv2v/internal/medium"
	"mmv2v/internal/metrics"
	"mmv2v/internal/obs"
	"mmv2v/internal/phy"
	"mmv2v/internal/trace"
	"mmv2v/internal/traffic"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// Config describes one simulation scenario.
type Config struct {
	// Seed drives every random stream in the scenario.
	Seed uint64
	// Traffic is the road scenario (density, lanes, models).
	Traffic traffic.Config
	// Grid, when non-nil, replaces the straight road with a Manhattan-grid
	// road network (the city-scale scenario): NewEnv builds a
	// traffic.Network from it and Traffic is ignored.
	Grid *traffic.GridConfig
	// World holds comm range and channel parameters.
	World world.Config
	// Timing holds the PHY control-plane constants.
	Timing phy.Timing
	// DemandBits is the HRIE task volume per neighbor per window
	// (paper: 200 Mb/s × 1 s window).
	DemandBits float64
	// WindowSec is the measurement window length (paper: metrics at the end
	// of every second).
	WindowSec float64
	// Windows is how many consecutive windows to run.
	Windows int
	// WarmupSec steps traffic before the radio protocol starts so the flow
	// reaches a steady state.
	WarmupSec float64
	// Workers bounds how many trials RunTrials executes concurrently; 0 (the
	// default) uses runtime.GOMAXPROCS(0). Every trial gets its own road,
	// world and RNG streams and results merge in trial order, so the pooled
	// output — metrics, statistics and the trace stream — is bit-identical
	// for any worker count.
	Workers int
	// Faults, when non-nil and enabled, injects deterministic channel and
	// radio faults — control-frame loss, transient blockage bursts, radio
	// churn, slot jitter — seeded from Seed (see internal/faults). Nil, or
	// a config with every intensity zero, is an exact no-op: outputs are
	// byte-identical to a run without fault injection.
	Faults *faults.Config
	// Trace, when non-nil, receives structured protocol events
	// (discoveries, matches, streams, completions). Nil disables tracing
	// at zero cost. Pooled runs replay per-trial captures into this
	// recorder in trial order, each event stamped with its trial index.
	Trace *trace.Recorder
	// Stats, when true, gives every trial an obs.Registry recording
	// per-layer statistics (control frames, collisions, per-MCS airtime,
	// beam switches, refresh sizes, fault events, matches/break-ups) and
	// samples it at every measurement-window boundary into an obs.Series
	// of per-window deltas. Registries and series merge slot-per-trial
	// into Result.Obs and Result.Series, so both exports are
	// byte-identical for any worker count. False (the default) keeps every
	// instrumented hot path a zero-cost no-op.
	Stats bool
	// Monitor, when non-nil, receives live notifications at window and
	// trial boundaries (see the Monitor interface). Like Workers or Trace
	// it only changes how a run is observed, never what it computes, so it
	// is excluded from the scenario fingerprint. Callbacks fire from worker
	// goroutines under RunTrials; implementations must be safe for
	// concurrent use.
	Monitor Monitor
	// Trial is this run's index within a pooled run, reported to Monitor
	// callbacks. RunTrials sets it; single runs default to 0.
	Trial int
}

// DefaultConfig returns the paper's scenario at a given traffic density
// (vehicles per lane per km) with the 200 Mb/s HRIE task.
func DefaultConfig(densityVPL float64, seed uint64) Config {
	return Config{
		Seed:       seed,
		Traffic:    traffic.DefaultConfig(densityVPL),
		World:      world.DefaultConfig(),
		Timing:     phy.DefaultTiming(),
		DemandBits: 200e6,
		WindowSec:  1.0,
		Windows:    1,
		WarmupSec:  10,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Grid != nil {
		if err := c.Grid.Validate(); err != nil {
			return err
		}
	} else if err := c.Traffic.Validate(); err != nil {
		return err
	}
	if err := c.World.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	switch {
	case c.DemandBits < 0:
		return fmt.Errorf("sim: negative demand %v", c.DemandBits)
	case c.WindowSec <= 0:
		return fmt.Errorf("sim: non-positive window %v", c.WindowSec)
	case c.Windows <= 0:
		return fmt.Errorf("sim: non-positive window count %d", c.Windows)
	case c.WarmupSec < 0:
		return fmt.Errorf("sim: negative warmup %v", c.WarmupSec)
	case c.Workers < 0:
		return fmt.Errorf("sim: negative worker count %d", c.Workers)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Env is the shared simulation environment handed to protocols.
type Env struct {
	Sim    *des.Simulator
	World  *world.World
	Medium *medium.Medium
	Ledger *metrics.Ledger
	Rand   *xrand.Source
	Timing phy.Timing
	// Seed is the scenario seed this environment was built from (for a
	// pooled trial, the derived per-trial seed) — the one value needed to
	// reproduce the run, carried here so error contexts can report it.
	Seed uint64
	// Faults is the active fault injector, nil on a clean channel.
	Faults *faults.Injector
	// DemandBits is the per-neighbor task volume of the current window.
	DemandBits float64
	// Trace receives protocol events; nil (the default) is a valid no-op.
	Trace *trace.Recorder
	// Obs is the trial's statistics registry; nil (the default) hands out
	// nil handles, making every instrumented path a no-op.
	Obs *obs.Registry
	// Series is the trial's windowed time-series; nil (the default) makes
	// sampling a no-op. The window loop owns it — layers never touch it.
	Series *obs.Series

	refreshHooks []func()
}

// N returns the number of vehicles.
func (e *Env) N() int { return e.World.NumVehicles() }

// PairDone reports whether pair (i, j) has completed its exchange in the
// current window — the paper's "all sensory data have been exchanged"
// condition that removes a neighbor from the working set.
func (e *Env) PairDone(i, j int) bool {
	return e.Ledger.Complete(i, j, e.DemandBits)
}

// OnRefresh registers a hook invoked after every 5 ms position/link refresh
// (protocols use it for UDT rate adaptation).
func (e *Env) OnRefresh(fn func()) {
	e.refreshHooks = append(e.refreshHooks, fn)
}

// FireRefreshHooks invokes all registered refresh hooks; the runner calls it
// on every tick, and tests that drive frames manually do the same.
func (e *Env) FireRefreshHooks() {
	for _, h := range e.refreshHooks {
		h()
	}
}

// Protocol is one OHM scheme under evaluation.
type Protocol interface {
	// Name identifies the scheme in reports.
	Name() string
	// RunFrame is invoked at each frame boundary; the implementation
	// schedules all of the frame's events on env.Sim and must finish its
	// activity before the next frame boundary.
	RunFrame(frame int)
}

// Factory constructs a protocol bound to an environment.
type Factory func(*Env) Protocol

// WindowResult carries the metrics of one measurement window.
type WindowResult struct {
	Window  int
	Stats   []metrics.VehicleStats
	Summary metrics.Summary
	// AvgNeighbors is the mean LOS neighbor count at window start.
	AvgNeighbors float64
	// LatencySumSec and LatencyPairs accumulate the time from window start
	// to each neighbor pair's first exchanged bit — the discovery + matching
	// latency observable uniformly across protocols. Pairs that never
	// exchanged anything are excluded.
	LatencySumSec float64
	LatencyPairs  int
}

// Result aggregates a full run.
type Result struct {
	Protocol string
	Windows  []WindowResult
	// Stats pools per-vehicle stats across all windows.
	Stats []metrics.VehicleStats
	// Summary aggregates the pooled stats.
	Summary metrics.Summary
	// AvgNeighbors is the mean over windows.
	AvgNeighbors float64
	// LatencySumSec and LatencyPairs pool the window latency accumulators.
	LatencySumSec float64
	LatencyPairs  int
	// Events is the number of DES events executed (diagnostics).
	Events uint64
	// Trials is the number of successful trials pooled into this result
	// (1 for a single Run).
	Trials int
	// Failures lists the trials that crashed or errored, in trial order;
	// nil for a single Run.
	Failures []*TrialError
	// Obs and Series carry the run's layer statistics and their per-window
	// deltas when Config.Stats was set, pooled in trial order for a
	// RunTrials result; nil otherwise.
	Obs    *obs.Registry
	Series *obs.Series
}

// MeanLatencySec returns the pooled mean time-to-first-exchange in seconds,
// or NaN when no pair exchanged anything.
func (r *Result) MeanLatencySec() float64 {
	if r.LatencyPairs == 0 {
		return math.NaN()
	}
	return r.LatencySumSec / float64(r.LatencyPairs)
}

// NewEnv builds the simulation environment of a scenario — warmed-up
// traffic, world, medium, ledger — without running any protocol. Run uses
// it; experiment harnesses that need custom instrumentation use it directly
// with DriveFrames.
func NewEnv(cfg Config) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rand := xrand.New(cfg.Seed)
	var fleet traffic.Fleet
	if cfg.Grid != nil {
		nw, err := traffic.NewNetwork(cfg.Grid.Network(), rand)
		if err != nil {
			return nil, err
		}
		fleet = nw
	} else {
		road, err := traffic.New(cfg.Traffic, rand)
		if err != nil {
			return nil, err
		}
		fleet = road
	}
	dt := cfg.Timing.PositionUpdate.Seconds()
	for t := 0.0; t < cfg.WarmupSec; t += dt {
		fleet.Step(dt)
	}
	w, err := world.New(cfg.World, fleet)
	if err != nil {
		return nil, err
	}
	return NewEnvWithWorld(cfg, w)
}

// NewEnvWithWorld builds an environment over a caller-constructed world
// (e.g. hand-placed vehicles). The scenario's traffic settings are not
// re-applied; only timing, demand and seed matter.
func NewEnvWithWorld(cfg Config, w *world.World) (*Env, error) {
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	sim := des.New()
	env := &Env{
		Sim:        sim,
		World:      w,
		Medium:     medium.New(sim, w),
		Ledger:     metrics.NewLedger(w.NumVehicles()),
		Rand:       xrand.New(cfg.Seed).Child("protocol"),
		Timing:     cfg.Timing,
		Seed:       cfg.Seed,
		DemandBits: cfg.DemandBits,
		Trace:      cfg.Trace,
	}
	if cfg.Stats {
		env.Obs = obs.New()
		env.Series = obs.NewSeries()
	}
	// SetObs calls are nil-safe: with Stats off they hand every layer nil
	// handles, keeping the instrumented hot paths no-ops.
	w.SetObs(env.Obs)
	env.Medium.SetObs(env.Obs)
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
		// The injector draws from a dedicated stream family mixed from the
		// scenario seed, so fault histories are reproducible from the seed
		// and independent of every other random stream.
		inj := faults.NewInjector(*cfg.Faults,
			xrand.Mix(cfg.Seed, xrand.HashString("faults")), sim)
		env.Faults = inj
		inj.SetObs(env.Obs)
		w.SetLinkFault(inj)
		env.Medium.SetFaults(inj)
	}
	return env, nil
}

// DriveFrames advances the environment by the given number of protocol
// frames: the 5 ms tick steps traffic, refreshes the world, fires refresh
// hooks and starts a frame on each frame boundary. firstFrame offsets the
// frame indices passed to the protocol.
func (e *Env) DriveFrames(proto Protocol, firstFrame, frames int) {
	ticksPerFrame := int(e.Timing.Frame / e.Timing.PositionUpdate)
	dt := e.Timing.PositionUpdate.Seconds()
	start := e.Sim.Now()
	end := start.Add(e.Timing.Frame * time.Duration(frames))
	e.Sim.Every(start, e.Timing.PositionUpdate, end, "sim.tick", func(tick int) {
		if tick > 0 {
			e.World.Fleet().Step(dt)
			e.World.Refresh()
		}
		e.FireRefreshHooks()
		if tick%ticksPerFrame == 0 && tick/ticksPerFrame < frames {
			proto.RunFrame(firstFrame + tick/ticksPerFrame)
		}
	})
	e.Sim.Run(end)
}

// Run executes a scenario under the given protocol factory.
func Run(cfg Config, factory Factory) (*Result, error) {
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return RunOnEnv(cfg, env, factory)
}

// RunOnEnv executes the window loop over an existing environment (used by
// Run and by custom-scenario entry points).
func RunOnEnv(cfg Config, env *Env, factory Factory) (*Result, error) {
	if cfg.Windows <= 0 || cfg.WindowSec <= 0 {
		return nil, fmt.Errorf("sim: invalid window settings (%d × %v s)", cfg.Windows, cfg.WindowSec)
	}
	proto := factory(env)
	res := &Result{Protocol: proto.Name()}
	framesPerWindow := int(cfg.WindowSec / cfg.Timing.Frame.Seconds())
	if framesPerWindow < 1 {
		return nil, fmt.Errorf("sim: window %vs cannot hold a %v frame", cfg.WindowSec, cfg.Timing.Frame)
	}
	for win := 0; win < cfg.Windows; win++ {
		env.Ledger.Reset()
		env.Medium.Reset()
		denominator := env.World.NeighborSnapshot()
		avgN := env.World.AvgNeighborCount()
		winStartSec := env.Sim.Now().Seconds()

		env.DriveFrames(proto, win*framesPerWindow, framesPerWindow)

		stats := metrics.Compute(denominator, env.Ledger, cfg.DemandBits)
		latSum, latPairs := pairLatency(denominator, env.Ledger, winStartSec)
		res.Windows = append(res.Windows, WindowResult{
			Window:        win,
			Stats:         stats,
			Summary:       metrics.Summarize(stats),
			AvgNeighbors:  avgN,
			LatencySumSec: latSum,
			LatencyPairs:  latPairs,
		})
		res.Stats = append(res.Stats, stats...)
		res.AvgNeighbors += avgN
		res.LatencySumSec += latSum
		res.LatencyPairs += latPairs

		env.Series.Sample(win, env.Obs)
		if cfg.Monitor != nil {
			// Rows and Points return fresh copies, so the monitor owns what
			// it receives and can publish it to concurrent readers.
			cfg.Monitor.WindowDone(cfg.Trial, win, cfg.Windows, env.Obs.Rows(""), env.Series.Points())
		}
	}
	res.Summary = metrics.Summarize(res.Stats)
	res.AvgNeighbors /= float64(cfg.Windows)
	res.Events = env.Sim.Executed()
	res.Trials = 1
	res.Obs = env.Obs
	res.Series = env.Series
	if cfg.Monitor != nil {
		cfg.Monitor.TrialDone(cfg.Trial)
	}
	return res, nil
}

// pairLatency sums, over every neighbor pair with any recorded exchange,
// the window-relative time of its first exchanged bit.
func pairLatency(neighbors [][]int, l *metrics.Ledger, winStartSec float64) (sum float64, pairs int) {
	for i, ns := range neighbors {
		for _, j := range ns {
			if j <= i {
				continue
			}
			if at, ok := l.FirstExchangeSec(i, j); ok {
				sum += at - winStartSec
				pairs++
			}
		}
	}
	return sum, pairs
}

// RunTrials runs the same scenario with distinct seeds and pools the
// per-vehicle stats, mirroring the paper's repeated-experiment methodology.
// Trials execute on a worker pool bounded by cfg.Workers (0 = GOMAXPROCS)
// and merge in trial order; see Runner.RunTrials for the determinism
// contract.
func RunTrials(cfg Config, factory Factory, trials int) (*Result, error) {
	return NewRunner(cfg.Workers).RunTrials(cfg, factory, trials)
}
