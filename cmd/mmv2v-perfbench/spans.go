package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// layer names one kind of span: a call the traced replay makes into one of
// the simulator's modules.
type layer uint8

const (
	lTrial    layer = iota // one whole trial (root)
	lWarmup                // traffic.New + warm-up steps, or traffic.NewNetwork
	lWorldNew              // world.New
	lEnvNew                // sim.NewEnvWithWorld + protocol factory
	lDESRun                // des.Simulator.Run of one window
	lStep                  // traffic.Fleet.Step
	lRefresh               // world.World.Refresh
	lHooks                 // sim.Env.FireRefreshHooks
	lFrame                 // sim.Protocol.RunFrame
	lMetrics               // metrics.Compute
	numLayers
)

var layerNames = [numLayers]string{
	"trial", "traffic.warmup", "world.new", "sim.env", "des.run",
	"traffic.step", "world.refresh", "sim.hooks", "proto.frame", "metrics.compute",
}

// layerLabels are the pprof label sets the traced replay runs each span
// under, so profile samples carry the layer the benchmark was calling.
var layerLabels = func() [numLayers]pprof.LabelSet {
	var out [numLayers]pprof.LabelSet
	for i, name := range layerNames {
		out[i] = pprof.Labels("layer", name)
	}
	return out
}()

// span is one timed call. Start and End are nanoseconds since the run's
// trace epoch; Parent indexes the enclosing span of the same trial, -1 at
// the root.
type span struct {
	Layer      layer
	Parent     int32
	Start, End int64
}

// tracer records the spans of one trial in memory. It is owned by the
// goroutine running that trial.
type tracer struct {
	epoch time.Time
	ctx   context.Context
	spans []span
	open  int32
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, ctx: context.Background(), open: -1}
}

// do runs fn as a span of layer l, under that layer's pprof labels.
func (t *tracer) do(l layer, fn func()) {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Layer: l, Parent: t.open, Start: time.Since(t.epoch).Nanoseconds()})
	t.open = id
	outer := t.ctx
	pprof.Do(outer, layerLabels[l], func(ctx context.Context) {
		t.ctx = ctx
		fn()
	})
	t.ctx = outer
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	t.open = t.spans[id].Parent
}

// selfSeconds sums, per layer, each span's duration minus the part of it
// its child spans cover.
func selfSeconds(spans []span) [numLayers]float64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	var out [numLayers]float64
	for i, s := range spans {
		out[s.Layer] += float64(self[i]) / 1e9
	}
	return out
}

// writeSpans writes every trial's spans as JSON lines, one span per line
// tagged with its trial, so a run's trace can be inspected after it exits.
func writeSpans(path string, trials [][]span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	for tr, spans := range trials {
		for i, s := range spans {
			fmt.Fprintf(bw, "{\"trial\":%d,\"span\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
				tr, i, s.Parent, layerNames[s.Layer], s.Start, s.End)
		}
	}
	return bw.Flush()
}
