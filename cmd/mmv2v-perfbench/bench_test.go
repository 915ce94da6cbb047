package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mmv2v/internal/core"
	"mmv2v/internal/sim"
	"mmv2v/internal/traffic"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n      int
		tail   float64
		tailOK bool
	}{
		{n: 99, tailOK: false},
		{n: 100, tail: 0.90, tailOK: true},
		{n: 199, tail: 0.90, tailOK: true},
		{n: 200, tail: 0.95, tailOK: true},
		{n: 999, tail: 0.95, tailOK: true},
		{n: 1000, tail: 0.99, tailOK: true},
		{n: 10000, tail: 0.999, tailOK: true},
	}
	for _, c := range cases {
		q, ok := highestTail(c.n)
		if ok != c.tailOK || q != c.tail {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, q, ok, c.tail, c.tailOK)
		}
		if ok && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, q*100, beyond(c.n, q))
		}
	}

	if _, err := summarizeTicks(make([]float64, 99)); err == nil {
		t.Error("99 samples: want an error, p90 has only 9 beyond it")
	}
	ms := make([]float64, 100)
	for i := range ms {
		ms[len(ms)-1-i] = float64(i + 1) // 100..1, unsorted
	}
	ts, err := summarizeTicks(ms)
	if err != nil {
		t.Fatal(err)
	}
	if ts.N != 100 || ts.P50 != 50 || ts.P90 != 90 || ts.Tail != 0.90 || ts.TailMs != 90 {
		t.Errorf("summarizeTicks(1..100) = %+v; want N 100, p50 50, p90 90, tail p90", ts)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// tinyRoad is a scenario small enough for unit tests: a sparse road, a
// short warm-up and a two-window run of five frames each.
func tinyRoad(seed uint64) sim.Config {
	cfg := sim.DefaultConfig(6, seed)
	cfg.WarmupSec = 1
	cfg.WindowSec = 0.1
	cfg.Windows = 2
	return cfg
}

func runDigests(t *testing.T, cfg sim.Config, trials int) ([]uint64, *sim.Result) {
	t.Helper()
	out := make([]uint64, trials)
	res, err := sim.NewRunner(2).RunTrialsEach(cfg, core.Factory(core.DefaultParams()), trials,
		func(tr int, r *sim.Result) { out[tr] = trialDigest(r.Protocol, tr, r.Stats) })
	if err != nil {
		t.Fatal(err)
	}
	return out, res
}

func TestDigestStableAcrossRuns(t *testing.T) {
	a, _ := runDigests(t, tinyRoad(7), 2)
	b, _ := runDigests(t, tinyRoad(7), 2)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("trial %d: digest %x then %x for one seed", i, a[i], b[i])
		}
	}
	if a[0] == a[1] {
		t.Error("two trials with different seeds share a digest")
	}

	grid := traffic.DefaultGridConfig(200)
	grid.Rows, grid.Cols, grid.BlockM = 3, 3, 200
	sample := func() uint64 {
		nw, err := traffic.NewNetwork(grid.Network(), xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		w, err := world.New(world.DefaultConfig(), nw)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			nw.Step(0.005)
		}
		w.Refresh()
		return linkSampleDigest(w) ^ tableDigest(w.TotalLinks(), w.AvgNeighborCount())
	}
	if x, y := sample(), sample(); x != y {
		t.Errorf("city digest %x then %x for one seed", x, y)
	}
}

// TestTracedReplayMatchesRunTrials pins the traced replica of sim's window
// loop to the real one: same per-vehicle stats, same pooled Summary.
func TestTracedReplayMatchesRunTrials(t *testing.T) {
	cfg := tinyRoad(11)
	want, res := runDigests(t, cfg, 2)
	w := roadWorkload{cells: []sim.Factory{core.Factory(core.DefaultParams())}, trials: 2}
	var trials []tracedTrial
	for tr := 0; tr < 2; tr++ {
		tt := traceTrial(cfg, w.cells[0], tr, time.Now())
		if tt.err != nil {
			t.Fatal(tt.err)
		}
		if got := trialDigest(tt.proto, tr, tt.stats); got != want[tr] {
			t.Errorf("trial %d: traced digest %x, RunTrials %x", tr, got, want[tr])
		}
		if tt.events == 0 || len(tt.spans) == 0 || tt.reg == nil {
			t.Errorf("trial %d: traced run recorded no events, spans or statistics", tr)
		}
		trials = append(trials, tt)
	}
	if got := w.pooledSummaries(trials)[0]; !sameSummary(got, res.Summary) {
		t.Errorf("traced Summary %+v, RunTrials %+v", got, res.Summary)
	}
}

func TestSelfSeconds(t *testing.T) {
	spans := []span{
		{Layer: lTrial, Parent: -1, Start: 0, End: 10e9},
		{Layer: lDESRun, Parent: 0, Start: 1e9, End: 9e9},
		{Layer: lStep, Parent: 1, Start: 2e9, End: 3e9},
		{Layer: lRefresh, Parent: 1, Start: 3e9, End: 5e9},
		{Layer: lStep, Parent: 1, Start: 6e9, End: 7e9},
	}
	self := selfSeconds(spans)
	want := map[layer]float64{lTrial: 2, lDESRun: 4, lStep: 2, lRefresh: 2}
	for l, v := range want {
		if self[l] != v {
			t.Errorf("self[%s] = %v, want %v", layerNames[l], self[l], v)
		}
	}
}

func TestFoldAttributesInnermostEntry(t *testing.T) {
	samples := []stackSample{
		// World code reached from medium resolution is medium time.
		{frames: []string{"mmv2v/internal/world.(*World).RxPowerMw", "mmv2v/internal/medium.(*Medium).deliverGroup",
			"mmv2v/internal/medium.(*Medium).resolve", "mmv2v/internal/des.(*Simulator).Run"}, count: 5},
		// A GC assist inside a refresh is GC time.
		{frames: []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"mmv2v/internal/world.(*World).Refresh"}, count: 1},
		// A protocol handler run by the event loop is protocol time.
		{frames: []string{"mmv2v/internal/core.(*Protocol).onFrame", "mmv2v/internal/des.(*Simulator).Run"}, count: 2},
		// The event loop's own heap work is des time.
		{frames: []string{"container/heap.Pop", "mmv2v/internal/des.(*Simulator).Run"}, count: 1},
		// No entry frame: the label decides.
		{frames: []string{"runtime.memmove"}, label: "traffic.step", count: 1},
		{frames: []string{"main.main"}, count: 0},
	}
	shares, total := foldShares(samples)
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	want := map[string]float64{"medium": 0.5, "gc": 0.1, "protocol": 0.2, "des": 0.1, "traffic": 0.1, "world": 0, "other": 0}
	for l, v := range want {
		if math.Abs(shares[l]-v) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", l, shares[l], v)
		}
	}
}

// pbw is a minimal protobuf writer for building synthetic profiles.
type pbw struct{ b []byte }

func (w *pbw) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *pbw) uint(field int, v uint64) { w.varint(uint64(field)<<3 | 0); w.varint(v) }

func (w *pbw) bytes(field int, p []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *pbw) packed(field int, vs ...uint64) {
	var p pbw
	for _, v := range vs {
		p.varint(v)
	}
	w.bytes(field, p.b)
}

func TestParseSyntheticProfile(t *testing.T) {
	strs := []string{"", "layer", "world.refresh",
		"mmv2v/internal/world.(*World).Refresh", "mmv2v/internal/world.sortLinks", "main.tick"}
	var prof pbw
	// Functions 1..3 name strings 3..5.
	for id := uint64(1); id <= 3; id++ {
		var f pbw
		f.uint(1, id)
		f.uint(2, id+2)
		prof.bytes(5, f.b)
	}
	// Location 10 holds sortLinks inlined into Refresh; location 11 is tick.
	var l10, line pbw
	l10.uint(1, 10)
	line.uint(1, 2)
	l10.bytes(4, line.b)
	line = pbw{}
	line.uint(1, 1)
	l10.bytes(4, line.b)
	prof.bytes(4, l10.b)
	var l11 pbw
	l11.uint(1, 11)
	line = pbw{}
	line.uint(1, 3)
	l11.bytes(4, line.b)
	prof.bytes(4, l11.b)
	// One packed sample with a label, one unpacked sample without.
	var s1, lab pbw
	s1.packed(1, 10, 11)
	s1.packed(2, 3, 30000000)
	lab.uint(1, 1)
	lab.uint(2, 2)
	s1.bytes(3, lab.b)
	prof.bytes(2, s1.b)
	var s2 pbw
	s2.uint(1, 11)
	s2.uint(2, 1)
	prof.bytes(2, s2.b)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	first := samples[0]
	wantFrames := []string{"mmv2v/internal/world.sortLinks", "mmv2v/internal/world.(*World).Refresh", "main.tick"}
	if first.count != 3 || first.label != "world.refresh" || len(first.frames) != 3 {
		t.Fatalf("sample 0 = %+v", first)
	}
	for i, f := range wantFrames {
		if first.frames[i] != f {
			t.Errorf("frame %d = %q, want %q", i, first.frames[i], f)
		}
	}
	shares, total := foldShares(samples)
	if total != 4 || shares["world"] != 0.75 || shares["other"] != 0.25 {
		t.Errorf("fold = %v over %d samples; want world 0.75, other 0.25 over 4", shares, total)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the names and units the benchmark
// emits in step with the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this checkout: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers result
	endToEnd(&e2e, 1, 1, []float64{1}, make([]float64, 100))
	layerReport{before: &runtime.MemStats{}, after: &runtime.MemStats{}}.set(&layers)
	for _, c := range []struct {
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{{e2e.Metrics, spec.EndToEnd}, {layers.Metrics, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(c.got), len(c.want))
		}
		for _, w := range c.want {
			if m, ok := c.got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("metric %s: emitted %+v (present %v), BENCHMARK.json unit %q", w.Name, m, ok, w.Unit)
			}
		}
	}
}
