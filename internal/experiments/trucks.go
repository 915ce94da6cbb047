package experiments

import (
	"fmt"
	"io"

	"mmv2v/internal/sim"
)

// TrucksOptions parameterize the heavy-vehicle extension study (beyond the
// paper): how does mmV2V's completion ratio degrade as a share of the
// vehicles become trucks — 16 m × 2.5 m bodies that block far more mmWave
// line-of-sight paths than cars?
type TrucksOptions struct {
	Run
	DensityVPL float64
	// Fractions is the sweep of truck shares.
	Fractions []float64
	// IncludeBaselines also measures ROP and 802.11ad under each mix.
	IncludeBaselines bool
}

// DefaultTrucksOptions returns the standard sweep.
func DefaultTrucksOptions() TrucksOptions {
	return TrucksOptions{
		Run:        Run{Seed: 1, Trials: 3},
		DensityVPL: 20,
		Fractions:  []float64{0, 0.1, 0.2, 0.3},
	}
}

// TrucksResult is the full study: a truck-share-by-protocol grid.
type TrucksResult struct {
	Opts TrucksOptions
	Grid
}

// Trucks runs the study.
func Trucks(opts TrucksOptions) (*TrucksResult, error) {
	protocols := paperProtocols()
	if !opts.IncludeBaselines {
		protocols = protocols[:1]
	}
	g, err := runGrid(Grid{Name: "trucks", Axis: "fraction", Column: "truck_fraction"}, opts.Run, opts.Fractions, protocols,
		func(fraction float64) sim.Config {
			cfg := sim.DefaultConfig(opts.DensityVPL, opts.Seed)
			cfg.Traffic.TruckFraction = fraction
			return cfg
		})
	if err != nil {
		return nil, err
	}
	return &TrucksResult{Opts: opts, Grid: g}, nil
}

// WriteTable prints the study.
func (r *TrucksResult) WriteTable(w io.Writer) {
	writeHeader(w, "Extension — OHM under heavy-vehicle (truck) blockage")
	fmt.Fprintf(w, "%-10s %-8s", "trucks", "avg |N|")
	for _, p := range r.Protocols {
		fmt.Fprintf(w, "  %-9s", p+" OCR")
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %-8.1f", fmt.Sprintf("%.0f%%", row.X*100), row.AvgNeighbors)
		for _, c := range row.Cells {
			fmt.Fprintf(w, "  %-9.3f", c.Summary.MeanOCR)
		}
		fmt.Fprintln(w)
	}
}
