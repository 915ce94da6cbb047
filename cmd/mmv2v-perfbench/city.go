package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"mmv2v"
	"mmv2v/internal/obs"
	"mmv2v/internal/phy"
	"mmv2v/internal/traffic"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// cityWorkload is mmv2v-sim's protocol-free scale drive: a 12×12 grid of
// 500 m blocks holding 10k vehicles, 5 ms traffic steps, and a link-table
// refresh every refreshTicks ticks. Each trial builds a fresh city from its
// pool entry's seed and drives it for ticks ticks.
type cityWorkload struct {
	vehicles     int
	ticks        int
	refreshTicks int
}

func (c cityWorkload) grid() mmv2v.GridConfig {
	g := mmv2v.DefaultGridConfig(c.vehicles)
	g.Rows, g.Cols, g.BlockM = 12, 12, 500
	return g
}

// cityTrial is what one drive yields.
type cityTrial struct {
	setup, drive time.Duration
	ticks        []float64 // ms per tick
	vehSec       float64
	table        uint64 // tableDigest of the final link table
}

// driveOnce builds pool entry j's city through the public GridWorld
// surface and drives it, timing every tick.
func (c cityWorkload) driveOnce(j int) (cityTrial, error) {
	var out cityTrial
	start := time.Now()
	g, err := mmv2v.NewGridWorld(c.grid(), scenarioSeed(j))
	if err != nil {
		return out, err
	}
	out.setup = time.Since(start)
	out.ticks = make([]float64, 0, c.ticks)
	driveStart := time.Now()
	last := driveStart
	for t := 1; t <= c.ticks; t++ {
		g.StepTraffic()
		if t%c.refreshTicks == 0 {
			g.RefreshLinks()
		}
		now := time.Now()
		out.ticks = append(out.ticks, float64(now.Sub(last).Nanoseconds())/1e6)
		last = now
	}
	out.drive = last.Sub(driveStart)
	out.vehSec = float64(g.NumVehicles()) * float64(c.ticks) * g.TickSeconds()
	out.table = tableDigest(g.TotalLinks(), g.AvgNeighbors())
	return out, nil
}

// cityTraced is one drive replayed with tracing on.
type cityTraced struct {
	table, sample uint64
	spans         []span
	reg           *obs.Registry
	vehSec        float64
	err           error
}

// traceDrive replays pool entry j's drive with the layers GridWorld wraps
// called directly — traffic.NewNetwork, world.New, Network.Step and
// World.Refresh — so each gets a span, and the world's statistics
// registry on.
func (c cityWorkload) traceDrive(j int, epoch time.Time) (out cityTraced) {
	t := newTracer(epoch)
	defer func() {
		if p := recover(); p != nil {
			out.err = fmt.Errorf("drive %d panicked: %v\n%s", j, p, debug.Stack())
		}
		out.spans = t.spans
	}()
	t.do(lTrial, func() {
		var nw *traffic.Network
		var w *world.World
		t.do(lWarmup, func() { nw, out.err = traffic.NewNetwork(c.grid().Network(), xrand.New(scenarioSeed(j))) })
		if out.err != nil {
			return
		}
		t.do(lWorldNew, func() { w, out.err = world.New(world.DefaultConfig(), nw) })
		if out.err != nil {
			return
		}
		out.reg = obs.New()
		w.SetObs(out.reg)
		dt := phy.DefaultTiming().PositionUpdate.Seconds()
		for tick := 1; tick <= c.ticks; tick++ {
			t.do(lStep, func() { nw.Step(dt) })
			if tick%c.refreshTicks == 0 {
				t.do(lRefresh, w.Refresh)
			}
		}
		out.vehSec = float64(w.NumVehicles()) * float64(c.ticks) * dt
		out.table = tableDigest(w.TotalLinks(), w.AvgNeighborCount())
		out.sample = linkSampleDigest(w)
	})
	return out
}
