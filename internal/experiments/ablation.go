package experiments

import (
	"fmt"
	"io"
	"time"

	"mmv2v/internal/core"
	"mmv2v/internal/geom"
	"mmv2v/internal/metrics"
	"mmv2v/internal/sim"
	"mmv2v/internal/units"
)

// AblationOptions parameterize the ablation study (our addition, motivated
// by the paper's design discussion): mmV2V against the centralized greedy
// oracle and against variants that disable one design choice at a time —
// the heterogeneous Tx/Rx beam widths (Sec. III-B), the p = 0.5 role
// probability optimum (Theorem 2), and the K = 3 / M = 40 operating point.
//
// Each variant is one cell.
type AblationOptions struct {
	Run
	DensityVPL float64
}

// DefaultAblationOptions returns the standard setting.
func DefaultAblationOptions() AblationOptions {
	return AblationOptions{Run: Run{Seed: 1, Trials: 3}, DensityVPL: 20}
}

// AblationRow is one variant's outcome.
type AblationRow struct {
	Variant string
	Summary metrics.Summary
}

// AblationResult is the full study.
type AblationResult struct {
	Opts AblationOptions
	Rows []AblationRow
}

// Ablation runs the study.
func Ablation(opts AblationOptions) (*AblationResult, error) {
	variants := []struct {
		name    string
		factory sim.Factory
		mutate  func(*sim.Config)
	}{
		{"mmV2V (paper config)", core.Factory(core.DefaultParams()), nil},
		{"oracle (centralized greedy)", core.OracleFactory(core.DefaultParams()), nil},
		{"homogeneous wide beams (β=30°)", with(func(p *core.Params) { p.Codebook.RxWidth = geom.Deg(30) }), nil},
		{"homogeneous narrow beams (α=12°)", with(func(p *core.Params) { p.Codebook.TxWidth = geom.Deg(12) }), nil},
		{"role probability p=0.3", with(func(p *core.Params) { p.P = 0.3 }), nil},
		{"role probability p=0.7", with(func(p *core.Params) { p.P = 0.7 }), nil},
		{"single discovery round (K=1)", with(func(p *core.Params) { p.K = 1 }), nil},
		{"sparse negotiation (M=10)", with(func(p *core.Params) { p.M = 10 }), nil},
		{"fairness-biased matching (+10 dB)", with(func(p *core.Params) { p.FairnessBiasDB = units.DB(10) }), nil},
		{"beam tracking in UDT", with(func(p *core.Params) { p.BeamTracking = true }), nil},
		{"GPS sync error ±5 µs", with(func(p *core.Params) { p.SyncJitter = 5 * time.Microsecond }), nil},
		{"explicit on-air refinement", with(func(p *core.Params) { p.ExplicitRefinement = true }), nil},
		{"log-normal shadowing σ=4 dB", core.Factory(core.DefaultParams()),
			func(c *sim.Config) { c.World.Channel.ShadowSigmaDB = 4 }},
	}
	rows, err := sweep("ablation", opts.Run, len(variants), func(runner *sim.Runner, vi int) (AblationRow, string, error) {
		v := variants[vi]
		cfg := sim.DefaultConfig(opts.DensityVPL, opts.Seed)
		if v.mutate != nil {
			v.mutate(&cfg)
		}
		pooled, err := runner.RunTrials(cfg, v.factory, opts.Trials)
		if err != nil {
			return AblationRow{}, "", err
		}
		return AblationRow{Variant: v.name, Summary: pooled.Summary}, "ablation " + v.name, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{Opts: opts, Rows: rows}, nil
}

// with returns the mmV2V protocol with one edit to the paper's parameters.
func with(edit func(*core.Params)) sim.Factory {
	p := core.DefaultParams()
	edit(&p)
	return core.Factory(p)
}

// Get returns the summary of a named variant.
func (r *AblationResult) Get(variant string) (metrics.Summary, bool) {
	for _, row := range r.Rows {
		if row.Variant == variant {
			return row.Summary, true
		}
	}
	return metrics.Summary{}, false
}

// WriteTable prints the study.
func (r *AblationResult) WriteTable(w io.Writer) {
	writeHeader(w, "Ablation — mmV2V design choices vs centralized oracle")
	fmt.Fprintf(w, "%-34s %-8s %-8s %-8s\n", "variant", "OCR", "ATP", "DTP")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-34s %-8.3f %-8.3f %-8.3f\n",
			row.Variant, row.Summary.MeanOCR, row.Summary.MeanATP, row.Summary.MeanDTP)
	}
}
