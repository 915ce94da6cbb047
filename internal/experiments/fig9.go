package experiments

import (
	"fmt"
	"io"

	"mmv2v/internal/core"
	"mmv2v/internal/metrics"
	"mmv2v/internal/sim"
)

// Fig9Options parameterize the headline comparison of Fig. 9: OCR, ATP and
// DTP as functions of traffic density for mmV2V, ROP and IEEE 802.11ad,
// each vehicle running a 200 Mb/s HRIE task with α=30°, β=12°, θ=15°,
// C=7, K=3, M=40.
type Fig9Options struct {
	Run
	Densities []float64
	// IncludeOracle adds the centralized greedy upper bound as a fourth
	// series (not in the paper; useful context).
	IncludeOracle bool
	// Stats enables per-cell layer statistics: each cell's pooled
	// obs.Registry and its per-window obs.Series land in its Cell, and
	// StatsRows and SeriesRows export the whole grid. Off (the default),
	// cells carry neither, at zero cost.
	Stats bool
}

// DefaultFig9Options returns the paper's configuration (densities 15–30
// vpl; fewer trials than the paper's repetitions by default).
func DefaultFig9Options() Fig9Options {
	return Fig9Options{
		Run:       Run{Seed: 1, Trials: 3},
		Densities: []float64{15, 20, 25, 30},
	}
}

// Fig9Result is the full comparison: a density-by-protocol grid.
type Fig9Result struct {
	Opts Fig9Options
	Grid
}

// Fig9 runs the comparison.
func Fig9(opts Fig9Options) (*Fig9Result, error) {
	protocols := paperProtocols()
	if opts.IncludeOracle {
		protocols = append(protocols, core.OracleFactory(core.DefaultParams()))
	}
	g, err := runGrid(Grid{Name: "fig9", Axis: "density", Column: "density_vpl"}, opts.Run, opts.Densities, protocols,
		func(density float64) sim.Config {
			cfg := sim.DefaultConfig(density, opts.Seed)
			cfg.Stats = opts.Stats
			return cfg
		})
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Opts: opts, Grid: g}, nil
}

// WriteTable prints the three sub-figures (a) OCR, (b) ATP, (c) DTP as
// density-by-protocol tables.
func (r *Fig9Result) WriteTable(w io.Writer) {
	writeHeader(w, "Fig. 9 — comparison of OHM protocols vs traffic density")
	metricsOf := []struct {
		name string
		get  func(metrics.Summary) float64
	}{
		{"(a) OCR", func(s metrics.Summary) float64 { return s.MeanOCR }},
		{"(b) ATP", func(s metrics.Summary) float64 { return s.MeanATP }},
		{"(c) DTP", func(s metrics.Summary) float64 { return s.MeanDTP }},
	}
	for _, m := range metricsOf {
		fmt.Fprintf(w, "%s:\n%-14s %-8s", m.name, "density (vpl)", "avg |N|")
		for _, p := range r.Protocols {
			fmt.Fprintf(w, "  %-14s", p)
		}
		fmt.Fprintln(w)
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%-14.0f %-8.1f", row.X, row.AvgNeighbors)
			for _, c := range row.Cells {
				if m.name == "(a) OCR" {
					fmt.Fprintf(w, "  %-6.3f ±%-5.3f", m.get(c.Summary), c.OCRCI95)
				} else {
					fmt.Fprintf(w, "  %-14.3f", m.get(c.Summary))
				}
			}
			fmt.Fprintln(w)
		}
	}
}
