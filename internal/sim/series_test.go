package sim_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"mmv2v/internal/obs"
	"mmv2v/internal/sim"
)

// seriesJSONL renders a result's pooled series as the canonical export.
func seriesJSONL(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	if res.Series == nil {
		t.Fatal("Series run returned nil Series")
	}
	var buf bytes.Buffer
	if err := obs.WriteSeriesJSONL(&buf, obs.SeriesRows(res.Series.Points(), "test")); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunTrialsSeriesIdenticalAcrossWorkers pins the series-merge contract:
// the pooled windowed export is byte-identical for any worker count.
func TestRunTrialsSeriesIdenticalAcrossWorkers(t *testing.T) {
	const trials = 4
	run := func(workers int) []byte {
		cfg := sim.DefaultConfig(10, 22)
		cfg.WindowSec = 0.1
		cfg.Windows = 3
		cfg.Workers = workers
		cfg.Stats = true
		res, err := sim.RunTrials(cfg, greedyFactory(), trials)
		if err != nil {
			t.Fatal(err)
		}
		if res.Series.Len() != cfg.Windows {
			t.Fatalf("pooled series has %d windows, want %d", res.Series.Len(), cfg.Windows)
		}
		return seriesJSONL(t, res)
	}
	one := run(1)
	eight := run(8)
	if len(one) == 0 {
		t.Fatal("series run exported no rows")
	}
	if !bytes.Equal(one, eight) {
		t.Fatalf("series exports differ:\nworkers=1:\n%s\nworkers=8:\n%s", one, eight)
	}
}

// TestSeriesOffKeepsNil pins the zero-cost default and the one switch:
// with Stats off a run carries neither a registry nor a series, and with
// Stats on it carries both, the series sampled once per window.
func TestSeriesOffKeepsNil(t *testing.T) {
	cfg := sim.DefaultConfig(5, 23)
	cfg.WindowSec = 0.1
	cfg.Windows = 2
	res, err := sim.Run(cfg, greedyFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs != nil || res.Series != nil {
		t.Fatal("Obs and Series should be nil when Stats is off")
	}

	cfg.Stats = true
	res, err = sim.Run(cfg, greedyFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil || res.Series == nil {
		t.Fatal("a Stats run should carry both the registry and its series")
	}
	if res.Series.Len() != cfg.Windows {
		t.Fatalf("series has %d windows, want %d", res.Series.Len(), cfg.Windows)
	}
}

// countingMonitor records callback arrivals under a mutex (callbacks fire
// from worker goroutines).
type countingMonitor struct {
	mu         sync.Mutex
	windows    int
	trials     int
	maxWindows int
}

func (m *countingMonitor) WindowDone(trial, window, windows int, rows []obs.Row, points []obs.SeriesPoint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.windows++
	m.maxWindows = windows
	if len(points) != window+1 {
		panic("monitor saw a series with the wrong number of windows")
	}
}

func (m *countingMonitor) TrialDone(trial int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.trials++
}

// TestMonitorObservesWithoutPerturbing pins the observation contract: a
// monitored run fires the expected callbacks and produces output
// byte-identical to an unmonitored one.
func TestMonitorObservesWithoutPerturbing(t *testing.T) {
	const trials = 3
	base := sim.DefaultConfig(10, 24)
	base.WindowSec = 0.1
	base.Windows = 2
	base.Stats = true
	base.Workers = 4

	clean, err := sim.RunTrials(base, greedyFactory(), trials)
	if err != nil {
		t.Fatal(err)
	}

	mon := &countingMonitor{}
	monitored := base
	monitored.Monitor = mon
	res, err := sim.RunTrials(monitored, greedyFactory(), trials)
	if err != nil {
		t.Fatal(err)
	}

	if mon.windows != trials*base.Windows {
		t.Errorf("WindowDone fired %d times, want %d", mon.windows, trials*base.Windows)
	}
	if mon.trials != trials {
		t.Errorf("TrialDone fired %d times, want %d", mon.trials, trials)
	}
	if mon.maxWindows != base.Windows {
		t.Errorf("WindowDone reported %d total windows, want %d", mon.maxWindows, base.Windows)
	}
	if !reflect.DeepEqual(clean.Windows, res.Windows) {
		t.Fatal("monitoring changed the window results")
	}
	if got, want := seriesJSONL(t, res), seriesJSONL(t, clean); !bytes.Equal(got, want) {
		t.Fatalf("monitoring changed the series export:\nmonitored:\n%s\nclean:\n%s", got, want)
	}
}
