package experiments

import (
	"bytes"
	"slices"
	"sort"
	"sync"
	"testing"

	"mmv2v/internal/faults"
	"mmv2v/internal/obs"
	"mmv2v/internal/traffic"
)

// exports renders a result's stats and series exports as JSON Lines.
func exports(t *testing.T, rows []obs.Row, series []obs.SeriesRow) (stats, ser []byte) {
	t.Helper()
	if len(rows) == 0 || len(series) == 0 {
		t.Fatalf("Stats+Series run exported %d stats and %d series rows", len(rows), len(series))
	}
	var jl, sl bytes.Buffer
	if err := obs.WriteJSONL(&jl, rows); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSeriesJSONL(&sl, series); err != nil {
		t.Fatal(err)
	}
	return jl.Bytes(), sl.Bytes()
}

// TestFig9StatsByteIdenticalAcrossWorkers pins the observability merge
// invariant at the experiment level: with Stats on, the stats
// and series JSONL exports and the rendered summary table of the Fig. 9
// scenario are byte-identical whether cells and trials run on one worker or
// eight — and so is the figure table itself. The serial exports are also
// pinned against the sweeps golden.
func TestFig9StatsByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment determinism test")
	}
	render := func(workers int) (table, jsonl, series, summary []byte) {
		opts := Fig9Options{Run: Run{Seed: 1, Trials: 2, Workers: workers}, Densities: []float64{12}, Stats: true}
		res, err := Fig9(opts)
		if err != nil {
			t.Fatal(err)
		}
		var tbl, sum bytes.Buffer
		res.WriteTable(&tbl)
		rows := res.StatsRows()
		jl, sl := exports(t, rows, res.SeriesRows())
		obs.WriteSummary(&sum, rows)
		return tbl.Bytes(), jl, sl, sum.Bytes()
	}
	t1, j1, l1, s1 := render(1)
	checkSweepGolden(t, "fig9 stats", j1)
	checkSweepGolden(t, "fig9 series", l1)
	t8, j8, l8, s8 := render(8)
	if !bytes.Equal(j1, j8) {
		t.Errorf("stats JSONL differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", j1, j8)
	}
	if !bytes.Equal(l1, l8) {
		t.Error("series JSONL differs between Workers=1 and Workers=8")
	}
	if !bytes.Equal(s1, s8) {
		t.Error("stats summary table differs between Workers=1 and Workers=8")
	}
	if !bytes.Equal(t1, t8) {
		t.Error("Fig. 9 table differs between Workers=1 and Workers=8 with Stats on")
	}
}

// TestFaultSweepStatsSeriesGolden pins the fault sweep's stats and series
// exports, scoped by intensity, against the sweeps golden.
func TestFaultSweepStatsSeriesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment golden test")
	}
	res, err := FaultSweep(FaultsOptions{
		Run: Run{Seed: 1, Trials: 1}, DensityVPL: 12, WindowSec: 0.2,
		Intensities: []float64{0, 1}, Profile: faults.DefaultConfig(),
		Stats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, series := exports(t, res.StatsRows(), res.SeriesRows())
	checkSweepGolden(t, "faults stats", stats)
	checkSweepGolden(t, "faults series", series)
}

// TestFig9StatsOffLeavesTableUnchanged pins the zero-cost contract at the
// experiment level: enabling nothing (the default) must not change the
// rendered table relative to a run that never heard of statistics, and
// cells carry no registries.
func TestFig9StatsOffLeavesTableUnchanged(t *testing.T) {
	opts := Fig9Options{Run: Run{Seed: 7, Trials: 1}, Densities: []float64{12}}
	res, err := Fig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		for _, c := range row.Cells {
			if c.Obs != nil {
				t.Fatalf("cell %s carries a registry with Stats off", c.Protocol)
			}
		}
	}
	if rows := res.StatsRows(); rows != nil {
		t.Fatalf("StatsRows = %v with Stats off, want nil", rows)
	}
}

// TestFig9ProgressReportsEveryCell checks that every runner-backed sweep
// fires its progress callback exactly once per cell, with the labels that
// -progress prints and /progress serves.
func TestFig9ProgressReportsEveryCell(t *testing.T) {
	grid := traffic.DefaultGridConfig(20)
	grid.Rows, grid.Cols, grid.BlockM = 2, 2, 150
	paper := []string{"mmV2V", "ROP", "802.11ad"}
	for _, tc := range []struct {
		name string
		run  func(Run) error
		want []string
	}{
		{"fig6", func(r Run) error {
			_, err := Fig6(Fig6Options{Run: r, Densities: []float64{3}, CValues: []int{1, 7}, MaxSlots: 5, Frames: 1})
			return err
		}, []string{"fig6 density=3 C=1", "fig6 density=3 C=7"}},
		{"fig7", func(r Run) error {
			_, err := Fig7(Fig7Options{Run: r, DensityVPL: 3, KValues: []int{1, 3}, M: 10})
			return err
		}, []string{"fig7 K=1", "fig7 K=3"}},
		{"fig8", func(r Run) error {
			_, err := Fig8(Fig8Options{Run: r, DensityVPL: 3, MValues: []int{10, 20}, K: 1})
			return err
		}, []string{"fig8 M=10", "fig8 M=20"}},
		{"fig9", func(r Run) error {
			_, err := Fig9(Fig9Options{Run: r, Densities: []float64{3}})
			return err
		}, labels("fig9 density=", []string{"3"}, paper)},
		{"faults", func(r Run) error {
			_, err := FaultSweep(FaultsOptions{Run: r, DensityVPL: 3, WindowSec: 0.1,
				Intensities: []float64{0, 0.25}, Profile: faults.DefaultConfig()})
			return err
		}, labels("faults intensity=", []string{"0", "0.25"}, paper)},
		{"trucks", func(r Run) error {
			_, err := Trucks(TrucksOptions{Run: r, DensityVPL: 3, Fractions: []float64{0, 0.25}})
			return err
		}, []string{"trucks fraction=0 mmV2V", "trucks fraction=0.25 mmV2V"}},
		{"warmup", func(r Run) error {
			r.Trials = 2
			_, err := Warmup(WarmupOptions{Run: r, DensityVPL: 3, Windows: 1})
			return err
		}, []string{"warmup trial=0", "warmup trial=1"}},
		{"city", func(r Run) error {
			_, err := City(CityOptions{Run: r, Grid: grid})
			return err
		}, []string{"city mmV2V", "city ROP", "city 802.11ad"}},
		{"ablation", func(r Run) error {
			_, err := Ablation(AblationOptions{Run: r, DensityVPL: 3})
			return err
		}, []string{
			"ablation GPS sync error ±5 µs",
			"ablation beam tracking in UDT",
			"ablation explicit on-air refinement",
			"ablation fairness-biased matching (+10 dB)",
			"ablation homogeneous narrow beams (α=12°)",
			"ablation homogeneous wide beams (β=30°)",
			"ablation log-normal shadowing σ=4 dB",
			"ablation mmV2V (paper config)",
			"ablation oracle (centralized greedy)",
			"ablation role probability p=0.3",
			"ablation role probability p=0.7",
			"ablation single discovery round (K=1)",
			"ablation sparse negotiation (M=10)",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var seen []string
			err := tc.run(Run{Seed: 1, Trials: 1, Progress: func(cell string) {
				mu.Lock()
				seen = append(seen, cell)
				mu.Unlock()
			}})
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(seen)
			want := slices.Clone(tc.want)
			sort.Strings(want)
			if !slices.Equal(seen, want) {
				t.Errorf("progress labels:\n got %q\nwant %q", seen, want)
			}
		})
	}
}

// labels lists the progress labels of an axis-by-protocol grid.
func labels(prefix string, xs, protocols []string) []string {
	var out []string
	for _, x := range xs {
		for _, p := range protocols {
			out = append(out, prefix+x+" "+p)
		}
	}
	return out
}
