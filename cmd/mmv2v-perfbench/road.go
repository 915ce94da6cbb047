package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"mmv2v/internal/baseline"
	"mmv2v/internal/core"
	"mmv2v/internal/faults"
	"mmv2v/internal/metrics"
	"mmv2v/internal/obs"
	"mmv2v/internal/sim"
	"mmv2v/internal/traffic"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// roadWorkload is a protocol workload on the paper's straight road: every
// batch runs each protocol cell for a few trials of one scenario seed, all
// cells submitted to one shared sim.Runner the way mmv2v-experiments
// submits a Fig. 9 density row.
type roadWorkload struct {
	density float64
	cells   []sim.Factory
	trials  int     // per cell per batch
	workers int     // 0 = GOMAXPROCS
	faults  bool    // faults.DefaultConfig() at intensity 1
	window  float64 // measurement window in s; 0 keeps the paper's 1 s
}

func fig9Cells() []sim.Factory {
	return []sim.Factory{
		core.Factory(core.DefaultParams()),
		baseline.ROPFactory(baseline.DefaultROPParams()),
		baseline.ADFactory(baseline.DefaultADParams()),
	}
}

// config is the scenario of pool entry j.
func (w roadWorkload) config(j int) sim.Config {
	cfg := sim.DefaultConfig(w.density, scenarioSeed(j))
	if w.window > 0 {
		cfg.WindowSec = w.window
	}
	if w.faults {
		f := faults.DefaultConfig()
		cfg.Faults = &f
	}
	return cfg
}

func (w roadWorkload) perBatch() int { return len(w.cells) * w.trials }

// trialConfig is the config RunTrials gives trial tr of a cell.
func trialConfig(cfg sim.Config, tr int) sim.Config {
	c := cfg
	c.Seed = xrand.Mix(cfg.Seed, uint64(tr))
	c.Trial = tr
	return c
}

// trialProbe is what the untraced run observes of one trial: when set-up
// ended, when the trial finished, and the host time of every tick.
type trialProbe struct {
	built, done time.Time
	last        time.Time
	ticks       []float64 // ms between successive position updates
	vehSec      float64
}

// cellProbe observes one cell's trials from outside: its Factory wrapper
// registers a tick-boundary hook before the protocol's own hooks, and it
// is the cell's sim.Monitor. Each trial writes only its own slot, from the
// worker running it; the slots are read after RunTrials returns.
type cellProbe struct {
	seeds  []uint64
	trials []trialProbe
}

func newCellProbe(cfg sim.Config, trials int) *cellProbe {
	p := &cellProbe{seeds: make([]uint64, trials), trials: make([]trialProbe, trials)}
	for tr := range p.seeds {
		p.seeds[tr] = trialConfig(cfg, tr).Seed
	}
	return p
}

func (p *cellProbe) slot(seed uint64) *trialProbe {
	for tr, s := range p.seeds {
		if s == seed {
			return &p.trials[tr]
		}
	}
	panic(fmt.Sprintf("perfbench: environment seed %d belongs to no trial", seed))
}

func (p *cellProbe) wrap(inner sim.Factory, simSec float64) sim.Factory {
	return func(env *sim.Env) sim.Protocol {
		tp := p.slot(env.Seed)
		env.OnRefresh(func() {
			now := time.Now()
			if !tp.last.IsZero() {
				tp.ticks = append(tp.ticks, float64(now.Sub(tp.last).Nanoseconds())/1e6)
			}
			tp.last = now
		})
		proto := inner(env)
		tp.vehSec = float64(env.N()) * simSec
		tp.built = time.Now()
		return proto
	}
}

func (p *cellProbe) WindowDone(int, int, int, []obs.Row, []obs.SeriesPoint) {}

func (p *cellProbe) TrialDone(trial int) { p.trials[trial].done = time.Now() }

// batchRun is one batch's outcome.
type batchRun struct {
	digests   []uint64          // per trial, cell-major
	summaries []metrics.Summary // pooled per cell
	errs      []error
	wall      time.Duration
	busy      time.Duration // Σ trial host time after set-up
	vehSec    float64
	ticks     []float64
}

// runBatch runs pool entry j untraced through sim.Runner.RunTrials.
func (w roadWorkload) runBatch(runner *sim.Runner, j int) batchRun {
	n := len(w.cells)
	probes := make([]*cellProbe, n)
	digests := make([][]uint64, n)
	pooled := make([]*sim.Result, n)
	start := time.Now()
	err := sim.Gather(n, func(c int) error {
		cfg := w.config(j)
		probes[c] = newCellProbe(cfg, w.trials)
		cfg.Monitor = probes[c]
		d := make([]uint64, w.trials)
		digests[c] = d
		res, err := runner.RunTrialsEach(cfg, probes[c].wrap(w.cells[c], simSeconds(cfg)), w.trials,
			func(tr int, r *sim.Result) { d[tr] = trialDigest(r.Protocol, tr, r.Stats) })
		pooled[c] = res
		if err != nil {
			return err
		}
		for _, f := range res.Failures {
			d[f.Trial] = 0
		}
		return nil
	})
	b := batchRun{wall: time.Since(start)}
	if err != nil {
		b.errs = append(b.errs, err)
	}
	for c := 0; c < n; c++ {
		b.digests = append(b.digests, digests[c]...)
		if pooled[c] != nil {
			b.summaries = append(b.summaries, pooled[c].Summary)
			for _, f := range pooled[c].Failures {
				b.errs = append(b.errs, f)
			}
		} else {
			b.summaries = append(b.summaries, metrics.Summary{})
		}
		for _, tp := range probes[c].trials {
			if !tp.done.IsZero() {
				b.busy += tp.done.Sub(tp.built)
				b.vehSec += tp.vehSec
			}
			b.ticks = append(b.ticks, tp.ticks...)
		}
	}
	return b
}

// setupOnce builds every trial environment of pool entry j — traffic
// warm-up, world.New, the environment and its protocol — the way
// RunTrials' trials do before their first tick, and returns the host time.
func (w roadWorkload) setupOnce(j int) (time.Duration, error) {
	start := time.Now()
	for _, f := range w.cells {
		cfg := w.config(j)
		for tr := 0; tr < w.trials; tr++ {
			env, err := sim.NewEnv(trialConfig(cfg, tr))
			if err != nil {
				return 0, err
			}
			f(env)
		}
	}
	return time.Since(start), nil
}

// tracedTrial is one trial replayed with tracing on.
type tracedTrial struct {
	stats  []metrics.VehicleStats
	proto  string
	spans  []span
	reg    *obs.Registry
	events uint64
	vehSec float64
	err    error
}

// traceTrial replays trial tr of a cell through the public Env surface,
// window by window exactly as sim.Run does, recording a span around every
// call into a layer. The statistics registry is on, so layer counters are
// available afterwards.
func traceTrial(cfg sim.Config, factory sim.Factory, tr int, epoch time.Time) (out tracedTrial) {
	c := trialConfig(cfg, tr)
	c.Stats = true
	t := newTracer(epoch)
	defer func() {
		if p := recover(); p != nil {
			out.err = fmt.Errorf("trial %d panicked: %v\n%s", tr, p, debug.Stack())
		}
		out.spans = t.spans
	}()
	t.do(lTrial, func() {
		env, proto, err := buildEnv(t, c, factory)
		if err != nil {
			out.err = err
			return
		}
		out.proto = proto.Name()
		out.reg = env.Obs
		out.vehSec = float64(env.N()) * simSeconds(c)
		out.stats = driveWindows(t, c, env, proto)
		out.events = env.Sim.Executed()
	})
	return out
}

// buildEnv is sim.NewEnv split at its layer boundaries.
func buildEnv(t *tracer, c sim.Config, factory sim.Factory) (env *sim.Env, proto sim.Protocol, err error) {
	var road *traffic.Road
	var w *world.World
	t.do(lWarmup, func() {
		road, err = traffic.New(c.Traffic, xrand.New(c.Seed))
		if err != nil {
			return
		}
		dt := c.Timing.PositionUpdate.Seconds()
		for s := 0.0; s < c.WarmupSec; s += dt {
			road.Step(dt)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	t.do(lWorldNew, func() { w, err = world.New(c.World, road) })
	if err != nil {
		return nil, nil, err
	}
	t.do(lEnvNew, func() {
		if env, err = sim.NewEnvWithWorld(c, w); err == nil {
			proto = factory(env)
		}
	})
	return env, proto, err
}

// simSeconds is the simulated time a trial covers: whole frames per
// window, as sim's window loop counts them.
func simSeconds(c sim.Config) float64 {
	return float64(int(c.WindowSec/c.Timing.Frame.Seconds())) * c.Timing.Frame.Seconds() * float64(c.Windows)
}

// driveWindows is sim's window loop: reset the ledger and medium, freeze the
// neighbour sets, run the 5 ms ticks and 20 ms frames on the DES, then
// compute the window's per-vehicle metrics.
func driveWindows(t *tracer, c sim.Config, env *sim.Env, proto sim.Protocol) []metrics.VehicleStats {
	frames := int(c.WindowSec / c.Timing.Frame.Seconds())
	perFrame := int(c.Timing.Frame / c.Timing.PositionUpdate)
	dt := c.Timing.PositionUpdate.Seconds()
	var stats []metrics.VehicleStats
	for win := 0; win < c.Windows; win++ {
		env.Ledger.Reset()
		env.Medium.Reset()
		denominator := env.World.NeighborSnapshot()
		start := env.Sim.Now()
		end := start.Add(c.Timing.Frame * time.Duration(frames))
		first := win * frames
		env.Sim.Every(start, c.Timing.PositionUpdate, end, "sim.tick", func(tick int) {
			if tick > 0 {
				t.do(lStep, func() { env.World.Fleet().Step(dt) })
				t.do(lRefresh, env.World.Refresh)
			}
			t.do(lHooks, env.FireRefreshHooks)
			if tick%perFrame == 0 && tick/perFrame < frames {
				t.do(lFrame, func() { proto.RunFrame(first + tick/perFrame) })
			}
		})
		t.do(lDESRun, func() { env.Sim.Run(end) })
		t.do(lMetrics, func() { stats = append(stats, metrics.Compute(denominator, env.Ledger, c.DemandBits)...) })
	}
	return stats
}

// traceBatch replays pool entry j with tracing on, on the runner.
func (w roadWorkload) traceBatch(runner *sim.Runner, j int, epoch time.Time) []tracedTrial {
	out := make([]tracedTrial, w.perBatch())
	// Each job writes only its own slot; Do returns after every job ends.
	_ = runner.Do(len(out), func(k int) error {
		c := k / w.trials
		out[k] = traceTrial(w.config(j), w.cells[c], k%w.trials, epoch)
		return nil
	})
	return out
}

// pooledSummaries merges the traced trials cell by cell in trial order,
// exactly as RunTrials pools them.
func (w roadWorkload) pooledSummaries(trials []tracedTrial) []metrics.Summary {
	var out []metrics.Summary
	for c := 0; c < len(w.cells); c++ {
		parts := make([][]metrics.VehicleStats, 0, w.trials)
		for tr := 0; tr < w.trials; tr++ {
			parts = append(parts, trials[c*w.trials+tr].stats)
		}
		_, s := metrics.Merge(parts)
		out = append(out, s)
	}
	return out
}

func sameSummary(a, b metrics.Summary) bool {
	return a.Vehicles == b.Vehicles && sameBits(a.MeanOCR, b.MeanOCR) &&
		sameBits(a.MeanATP, b.MeanATP) && sameBits(a.MeanDTP, b.MeanDTP)
}

// scenarioSeed is the scenario seed of pool entry j.
func scenarioSeed(j int) uint64 { return uint64(j) + 1 }

// poolIndex is the pool entry of batch k of a run with the given seed: the
// seed picks where in the pool the run starts, and batches walk forward.
func poolIndex(seed uint64, k, pool int) int {
	start := xrand.Mix(seed, math.MaxUint64) % uint64(pool)
	return int((start + uint64(k)) % uint64(pool))
}
