package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"mmv2v/internal/faults"
	"mmv2v/internal/sim"
)

// FaultsOptions parameterize the graceful-degradation study (our addition
// beyond the paper): mmV2V, ROP and IEEE 802.11ad under the deterministic
// fault-injection layer of internal/faults, swept over fault intensity.
type FaultsOptions struct {
	Run
	// DensityVPL is the traffic density of every cell (one density: the
	// sweep axis is fault intensity, not load).
	DensityVPL float64
	// WindowSec overrides the measurement window length when positive
	// (0 = the paper's 1 s window); tests use short windows.
	WindowSec float64
	// Intensities are the fault levels: Profile.Scale(intensity) per cell.
	// 0 is the clean channel; 1 is the full profile.
	Intensities []float64
	// Profile is the intensity-1 fault mix.
	Profile faults.Config
	// Stats enables per-cell layer statistics and their per-window series
	// (see Fig9Options.Stats).
	Stats bool
}

// DefaultFaultsOptions returns the default sweep: the paper's 20 vpl
// scenario under the standard stress profile at 0/¼/½/1 intensity.
func DefaultFaultsOptions() FaultsOptions {
	return FaultsOptions{
		Run:         Run{Seed: 1, Trials: 3},
		DensityVPL:  20,
		Intensities: []float64{0, 0.25, 0.5, 1},
		Profile:     faults.DefaultConfig(),
	}
}

// FaultsResult is the full graceful-degradation table: an
// intensity-by-protocol grid.
type FaultsResult struct {
	Opts FaultsOptions
	Grid
}

// FaultSweep runs the study. Cells share one runner, and results assemble
// in option-list order, so output is byte-identical for any worker count.
func FaultSweep(opts FaultsOptions) (*FaultsResult, error) {
	if opts.DensityVPL <= 0 {
		return nil, fmt.Errorf("experiments: invalid fault-sweep density %v", opts.DensityVPL)
	}
	g, err := runGrid(Grid{Name: "faults", Axis: "intensity", Column: "intensity"}, opts.Run, opts.Intensities, paperProtocols(),
		func(intensity float64) sim.Config {
			cfg := sim.DefaultConfig(opts.DensityVPL, opts.Seed)
			if opts.WindowSec > 0 {
				cfg.WindowSec = opts.WindowSec
			}
			cfg.Stats = opts.Stats
			profile := opts.Profile.Scale(intensity)
			cfg.Faults = &profile
			return cfg
		})
	if err != nil {
		return nil, err
	}
	return &FaultsResult{Opts: opts, Grid: g}, nil
}

// WriteTable prints the degradation table: (a) OCR, (b) time to first
// exchange, (c) ATP by intensity and protocol, plus a crash-isolation
// summary line when any trial was lost.
func (r *FaultsResult) WriteTable(w io.Writer) {
	writeHeader(w, "Fault sweep — graceful degradation under channel/radio faults")
	fmt.Fprintf(w, "density %g vpl; profile at intensity 1: %+v\n", r.Opts.DensityVPL, r.Opts.Profile)
	metricsOf := []struct {
		name string
		get  func(Cell) float64
	}{
		{"(a) OCR", func(c Cell) float64 { return c.Summary.MeanOCR }},
		{"(b) first-exchange latency (ms)", func(c Cell) float64 { return c.MeanLatencySec * 1e3 }},
		{"(c) ATP", func(c Cell) float64 { return c.Summary.MeanATP }},
	}
	for _, m := range metricsOf {
		fmt.Fprintf(w, "%s:\n%-10s", m.name, "intensity")
		for _, p := range r.Protocols {
			fmt.Fprintf(w, "  %-10s", p)
		}
		fmt.Fprintln(w)
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%-10.2f", row.X)
			for _, c := range row.Cells {
				if math.IsNaN(m.get(c)) {
					fmt.Fprintf(w, "  %-10s", "-")
				} else {
					fmt.Fprintf(w, "  %-10.3f", m.get(c))
				}
			}
			fmt.Fprintln(w)
		}
	}
	failed := 0
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			failed += c.Failures
		}
	}
	if failed > 0 {
		fmt.Fprintf(w, "trial health: %d trial(s) failed\n", failed)
	}
}

// WriteCSV emits intensity, protocol, ocr, atp, dtp, first_exchange_sec,
// trials, failures rows.
func (r *FaultsResult) WriteCSV(w io.Writer) error {
	header := []string{"protocol", "ocr", "atp", "dtp", "first_exchange_sec", "trials", "failures"}
	return r.writeCSV(w, header, func(_ GridRow, c Cell) []string {
		lat := ""
		if !math.IsNaN(c.MeanLatencySec) {
			lat = f(c.MeanLatencySec)
		}
		return []string{
			c.Protocol,
			f(c.Summary.MeanOCR), f(c.Summary.MeanATP), f(c.Summary.MeanDTP),
			lat, strconv.Itoa(c.Trials), strconv.Itoa(c.Failures),
		}
	})
}
