package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"mmv2v/internal/metrics"
	"mmv2v/internal/obs"
	"mmv2v/internal/sim"
)

// setupReps is how many times a road run builds its first scenarios' trial
// environments to measure set-up; setup_s is the median.
const setupReps = 5

// endToEnd fills the end-to-end metrics every workload reports.
func endToEnd(r *result, vehSec, measured float64, setups []float64, ticks []float64) {
	ts, err := summarizeTicks(ticks)
	if err != nil {
		r.fail("%v", err)
	}
	r.set("veh_s_per_s", "veh-s/s", ratio(vehSec, measured))
	r.set("setup_s", "s", median(setups))
	r.set("tick_p50_ms", "ms", ts.P50)
	r.set("tick_p90_ms", "ms", ts.P90)
	r.set("peak_rss_mb", "MiB", peakRSSMB())
	r.set("trial_ok_ratio", "ratio", ratio(float64(r.Attempted-r.Failed), float64(r.Attempted)))
	r.notef("ticks: %d samples, p50 %.4g ms, p90 %.4g ms, highest tail with %d beyond: p%g = %.4g ms",
		ts.N, ts.P50, ts.P90, minBeyond, ts.Tail*100, ts.TailMs)
	r.notef("measured %.4g simulated vehicle-seconds in %.4g host seconds (set-up excluded)", vehSec, measured)
}

// roadBench runs a roadWorkload: untraced batches until the time is up,
// or a fixed number of batches twice in the traced run.
type roadBench struct {
	w      roadWorkload
	pooled int // pool entries with stored digests
	traced int // batches in the traced slice
}

func (b roadBench) pool() int { return b.pooled }

// tally checks one batch's digests against pool entry j's and counts the
// batch's trials and failures into r.
func (b roadBench) tally(r *result, exp [][]string, j int, run batchRun) {
	for _, err := range run.errs {
		r.notef("trial error: %v", err)
	}
	for k, d := range run.digests {
		r.Attempted++
		if !checkDigest(exp, j, k, d) {
			r.Failed++
			r.fail("pool entry %d trial %d: digest %s does not match the stored one", j, k, hexDigest(d))
		}
	}
}

func (b roadBench) measure(seed uint64, seconds float64, exp [][]string) result {
	r := result{Correct: true}
	var setups []float64
	for k := 0; k < setupReps; k++ {
		d, err := b.w.setupOnce(poolIndex(seed, k, b.pooled))
		if err != nil {
			r.fail("set-up: %v", err)
			return r
		}
		setups = append(setups, d.Seconds())
	}
	runner := sim.NewRunner(b.w.workers)
	var wall, vehSec float64
	var ticks []float64
	trials := 0
	start := time.Now()
	for k := 0; k == 0 || time.Since(start).Seconds() < seconds; k++ {
		j := poolIndex(seed, k, b.pooled)
		run := b.w.runBatch(runner, j)
		b.tally(&r, exp, j, run)
		wall += run.wall.Seconds()
		vehSec += run.vehSec
		ticks = append(ticks, run.ticks...)
		trials += b.w.perBatch()
	}
	// RunTrials builds each trial's environment inside its worker; take the
	// set-up phase's per-trial cost out of the measured wall time.
	inTrialSetup := float64(trials) * median(setups) / float64(b.w.perBatch()) / float64(runner.Workers())
	endToEnd(&r, vehSec, wall-inTrialSetup, setups, ticks)
	r.notef("%d trials on %d workers, %.4g s wall, %.4g s of it in-trial set-up", trials, runner.Workers(), wall, inTrialSetup)
	return r
}

func (b roadBench) trace(seed uint64, exp [][]string, spansPath string) result {
	r := result{Correct: true}
	runner := sim.NewRunner(b.w.workers)

	// Phase A: the untraced run of the slice, as -trace 0 runs it.
	var wallA, busyA float64
	var summaries []metrics.Summary
	for k := 0; k < b.traced; k++ {
		j := poolIndex(seed, k, b.pooled)
		run := b.w.runBatch(runner, j)
		b.tally(&r, exp, j, run)
		wallA += run.wall.Seconds()
		busyA += run.busy.Seconds()
		summaries = append(summaries, run.summaries...)
	}

	// Phase B: the same batches with tracing on.
	var trials []tracedTrial
	l, wallB, samples, err := profiled(func(epoch time.Time) {
		for k := 0; k < b.traced; k++ {
			trials = append(trials, b.w.traceBatch(runner, poolIndex(seed, k, b.pooled), epoch)...)
		}
	})
	if err != nil {
		r.fail("%v", err)
	}
	var perTrial [][]span
	var regs []*obs.Registry
	per := b.w.perBatch()
	for k := 0; k < b.traced; k++ {
		j := poolIndex(seed, k, b.pooled)
		batch := trials[k*per : (k+1)*per]
		for i, s := range b.w.pooledSummaries(batch) {
			if want := summaries[k*len(b.w.cells)+i]; !sameSummary(s, want) {
				r.fail("pool entry %d cell %d: traced Summary %+v differs from RunTrials' %+v", j, i, s, want)
			}
		}
		for i, t := range batch {
			r.Attempted++
			if t.err != nil || !checkDigest(exp, j, i, trialDigest(t.proto, i%b.w.trials, t.stats)) {
				r.Failed++
				r.fail("pool entry %d trial %d: traced replay failed or diverged (err %v)", j, i, t.err)
			}
			perTrial = append(perTrial, t.spans)
			regs = append(regs, t.reg)
			l.events += t.events
			l.vehSec += t.vehSec
		}
	}
	l.idle = float64(runner.Workers())*wallA - busyA
	return finishTrace(&r, l, perTrial, regs, wallA, wallB, samples, spansPath)
}

func (b roadBench) record(j int) ([]string, error) {
	run := b.w.runBatch(sim.NewRunner(b.w.workers), j)
	if len(run.errs) > 0 {
		return nil, run.errs[0]
	}
	out := make([]string, len(run.digests))
	for k, d := range run.digests {
		out[k] = hexDigest(d)
	}
	return out, nil
}

// cityBench runs a cityWorkload: untraced drives until the time is up, or
// a fixed number of drives twice in the traced run.
type cityBench struct {
	w      cityWorkload
	pooled int
	traced int
}

func (b cityBench) pool() int { return b.pooled }

func (b cityBench) measure(seed uint64, seconds float64, exp [][]string) result {
	r := result{Correct: true}
	var setups, ticks []float64
	var drive, vehSec float64
	start := time.Now()
	for k := 0; k < setupReps || time.Since(start).Seconds() < seconds; k++ {
		j := poolIndex(seed, k, b.pooled)
		// Collect the previous city before building the next, so the peak
		// resident set is one city's, as in a single mmv2v-sim -drive.
		runtime.GC()
		t, err := b.w.driveOnce(j)
		r.Attempted++
		if err != nil {
			r.Failed++
			r.fail("pool entry %d: %v", j, err)
			continue
		}
		if !checkDigest(exp, j, 0, t.table) {
			r.Failed++
			r.fail("pool entry %d: link table digest %s does not match the stored one", j, hexDigest(t.table))
		}
		setups = append(setups, t.setup.Seconds())
		ticks = append(ticks, t.ticks...)
		drive += t.drive.Seconds()
		vehSec += t.vehSec
	}
	endToEnd(&r, vehSec, drive, setups, ticks)
	r.notef("%d drives of %d ticks", r.Attempted, b.w.ticks)
	return r
}

func (b cityBench) trace(seed uint64, exp [][]string, spansPath string) result {
	r := result{Correct: true}
	var wallA float64
	tables := make([]uint64, b.traced)
	for k := range tables {
		j := poolIndex(seed, k, b.pooled)
		start := time.Now()
		t, err := b.w.driveOnce(j)
		wallA += time.Since(start).Seconds()
		r.Attempted++
		if err != nil || !checkDigest(exp, j, 0, t.table) {
			r.Failed++
			r.fail("pool entry %d: untraced drive failed or diverged (err %v)", j, err)
		}
		tables[k] = t.table
	}

	drives := make([]cityTraced, len(tables))
	l, wallB, samples, err := profiled(func(epoch time.Time) {
		for k := range drives {
			drives[k] = b.w.traceDrive(poolIndex(seed, k, b.pooled), epoch)
		}
	})
	if err != nil {
		r.fail("%v", err)
	}
	var perTrial [][]span
	var regs []*obs.Registry
	for k, t := range drives {
		j := poolIndex(seed, k, b.pooled)
		r.Attempted++
		if t.err != nil || t.table != tables[k] || !checkDigest(exp, j, 1, t.sample) {
			r.Failed++
			r.fail("pool entry %d: traced drive failed or diverged from the untraced one (err %v)", j, t.err)
		}
		perTrial = append(perTrial, t.spans)
		regs = append(regs, t.reg)
		l.vehSec += t.vehSec
	}
	return finishTrace(&r, l, perTrial, regs, wallA, wallB, samples, spansPath)
}

func (b cityBench) record(j int) ([]string, error) {
	t := b.w.traceDrive(j, time.Now())
	if t.err != nil {
		return nil, t.err
	}
	return []string{hexDigest(t.table), hexDigest(t.sample)}, nil
}

// layerReport is what a traced run measured; set turns it into the
// per-layer metrics.
type layerReport struct {
	self          [numLayers]float64 // span self time per layer, s
	rows          []obs.Row          // pooled statistics registry
	events        uint64             // DES events executed
	vehSec        float64            // simulated vehicle-seconds traced
	before, after *runtime.MemStats  // around the traced phase
	shares        map[string]float64 // CPU profile shares per cpuLayers entry
	idle          float64            // runner idle worker-seconds, untraced pass
	overhead      float64            // 1 − untraced ÷ traced wall time
}

// row returns the named registry row (zero when absent).
func (l layerReport) row(name string) obs.Row {
	for _, r := range l.rows {
		if r.Name == name {
			return r
		}
	}
	return obs.Row{}
}

func (l layerReport) count(name string) float64 { return float64(l.row(name).Count) }

func (l layerReport) set(r *result) {
	r.set("des.events_s", "s", l.self[lDESRun])
	r.set("des.events", "count", float64(l.events))
	r.set("world.refresh_s", "s", l.self[lRefresh])
	r.set("world.build_s", "s", l.self[lWorldNew])
	r.set("traffic.step_s", "s", l.self[lStep])
	r.set("traffic.warmup_s", "s", l.self[lWarmup])
	r.set("sim.hooks_s", "s", l.self[lHooks])
	r.set("sim.runner_idle_s", "s", l.idle)
	r.set("proto.frame_s", "s", l.self[lFrame])
	r.set("metrics.compute_s", "s", l.self[lMetrics])

	sinr := float64(l.row("medium.control_sinr_db").Count)
	r.set("medium.control_tx", "count", l.count("medium.control_tx"))
	r.set("medium.sinr_evals", "count", sinr)
	r.set("medium.control_delivered", "count", l.count("medium.control_delivered"))
	r.set("medium.delivery_ratio", "ratio", ratio(l.count("medium.control_delivered"), sinr))
	r.set("medium.stream_starts", "count", l.count("medium.stream_starts"))
	r.set("world.refresh_links", "count", l.row("world.refresh_links").Sum)
	r.set("world.nlos_links", "count", l.count("world.nlos_links"))
	r.set("snd.ssw_tx", "count", l.count("snd.ssw_tx"))
	r.set("dcm.neg_tx", "count", l.count("dcm.neg_tx"))
	r.set("dcm.matches", "count", l.count("dcm.matches"))
	r.set("dcm.match_ratio", "ratio", ratio(l.count("dcm.matches"), l.count("dcm.neg_tx")))
	r.set("udt.refine_probes", "count", l.count("udt.refine_probes"))
	r.set("udt.completions", "count", l.count("udt.completions"))
	r.set("faults.control_drops", "count", l.count("faults.control_drops"))
	r.set("faults.radio_transitions", "count", l.count("faults.radio_transitions"))
	r.set("faults.blocked_ticks", "count", l.count("faults.blocked_ticks"))

	r.set("runtime.alloc_bytes_per_veh_s", "B/veh-s", ratio(float64(l.after.TotalAlloc-l.before.TotalAlloc), l.vehSec))
	r.set("runtime.mallocs_per_veh_s", "1/veh-s", ratio(float64(l.after.Mallocs-l.before.Mallocs), l.vehSec))
	r.set("runtime.gc_cycles", "count", float64(l.after.NumGC-l.before.NumGC))
	for _, name := range cpuLayers {
		r.set("cpu."+name, "share", l.shares[name])
	}
	r.set("trace.overhead", "ratio", l.overhead)
}

// profiled runs fn, the traced phase, under a CPU profile and reads the
// runtime's memory statistics around it. It returns the report with those
// filled in, the phase's wall time and the profile's sample count. fn runs
// even when the profile cannot start; the error then says so.
func profiled(fn func(epoch time.Time)) (l layerReport, wall float64, samples int64, err error) {
	var buf bytes.Buffer
	startErr := pprof.StartCPUProfile(&buf)
	l.before, l.after = new(runtime.MemStats), new(runtime.MemStats)
	epoch := time.Now()
	runtime.ReadMemStats(l.before)
	fn(epoch)
	runtime.ReadMemStats(l.after)
	wall = time.Since(epoch).Seconds()
	if startErr != nil {
		return l, wall, 0, fmt.Errorf("cpu profile: %w", startErr)
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		return l, wall, 0, fmt.Errorf("decoding cpu profile: %w", err)
	}
	l.shares, samples = foldShares(stacks)
	return l, wall, samples, nil
}

// finishTrace completes a traced run's report from its spans and pooled
// registries and writes the spans out.
func finishTrace(r *result, l layerReport, perTrial [][]span, regs []*obs.Registry, wallA, wallB float64, samples int64, spansPath string) result {
	var all []span
	for _, s := range perTrial {
		all = append(all, s...)
	}
	l.self = selfSeconds(all)
	l.rows = obs.Merge(regs).Rows("")
	l.overhead = 1 - wallA/wallB
	l.set(r)
	r.notef("traced %d trials: %.4g s untraced, %.4g s traced, %d profile samples", len(perTrial), wallA, wallB, samples)
	if err := writeSpans(spansPath, perTrial); err != nil {
		r.fail("writing spans: %v", err)
	}
	return *r
}
