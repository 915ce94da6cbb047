package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mmv2v/internal/core"
	"mmv2v/internal/metrics"
	"mmv2v/internal/sim"
)

// Fig7Options parameterize the Fig. 7 study: CDFs of OCR and ATP for
// different numbers of neighbor discovery rounds K (paper: K = 1..4 at
// 20 vpl with M = 40, repeated trials, metrics at the end of each second).
type Fig7Options struct {
	Run
	DensityVPL float64
	KValues    []int
	M          int
	// CurvePoints samples each CDF for printing.
	CurvePoints int
}

// DefaultFig7Options returns the paper's configuration (with fewer trials
// than the paper's 100 by default; raise Trials to match).
func DefaultFig7Options() Fig7Options {
	return Fig7Options{
		Run:         Run{Seed: 1, Trials: 5},
		DensityVPL:  20,
		KValues:     []int{1, 2, 3, 4},
		M:           40,
		CurvePoints: 11,
	}
}

// Fig8Options parameterize the Fig. 8 study: CDFs of OCR and ATP for
// different numbers of negotiation slots M (paper: M = 20..80 step 20 at
// 20 vpl with K = 3).
type Fig8Options struct {
	Run
	DensityVPL  float64
	MValues     []int
	K           int
	CurvePoints int
}

// DefaultFig8Options returns the paper's configuration.
func DefaultFig8Options() Fig8Options {
	return Fig8Options{
		Run:         Run{Seed: 1, Trials: 5},
		DensityVPL:  20,
		MValues:     []int{20, 40, 60, 80},
		K:           3,
		CurvePoints: 11,
	}
}

// Curve holds one swept value's pooled OCR/ATP distribution.
type Curve struct {
	// Value is the swept core.Params field's value (K or M).
	Value   int
	MeanOCR float64
	MeanATP float64
	OCRCDF  metrics.CDF
	ATPCDF  metrics.CDF
}

// CDFResult is a sweep of one core.Params field, each value's OCR and ATP
// distributions pooled over trials: Fig. 7 sweeps K, Fig. 8 sweeps M.
type CDFResult struct {
	// Param names the swept field.
	Param string
	// CurvePoints samples each CDF for printing.
	CurvePoints int
	Curves      []Curve
	title       string
	width       int // of the Param=value column
}

// Fig7Result is the full Fig. 7 study.
type Fig7Result struct {
	Opts Fig7Options
	CDFResult
}

// Fig8Result is the full Fig. 8 study.
type Fig8Result struct {
	Opts Fig8Options
	CDFResult
}

// Fig7 runs the study.
func Fig7(opts Fig7Options) (*Fig7Result, error) {
	base := core.DefaultParams()
	base.M = opts.M
	res := CDFResult{Param: "K", CurvePoints: opts.CurvePoints, width: 4,
		title: "Fig. 7 — effect of discovery rounds K (CDFs of OCR and ATP)"}
	err := res.sweep("fig7", opts.Run, opts.DensityVPL, base, opts.KValues, func(p *core.Params, k int) { p.K = k })
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Opts: opts, CDFResult: res}, nil
}

// Fig8 runs the study.
func Fig8(opts Fig8Options) (*Fig8Result, error) {
	base := core.DefaultParams()
	base.K = opts.K
	res := CDFResult{Param: "M", CurvePoints: opts.CurvePoints, width: 5,
		title: "Fig. 8 — effect of negotiation slots M (CDFs of OCR and ATP)"}
	err := res.sweep("fig8", opts.Run, opts.DensityVPL, base, opts.MValues, func(p *core.Params, m int) { p.M = m })
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Opts: opts, CDFResult: res}, nil
}

// sweep fills r.Curves with one mmV2V cell per value, each running base
// with set applied.
func (r *CDFResult) sweep(name string, run Run, density float64, base core.Params, values []int, set func(*core.Params, int)) error {
	curves, err := sweep(name, run, len(values), func(rn *sim.Runner, i int) (Curve, string, error) {
		params := base
		set(&params, values[i])
		pooled, err := rn.RunTrials(sim.DefaultConfig(density, run.Seed), core.Factory(params), run.Trials)
		if err != nil {
			return Curve{}, "", err
		}
		var ocrs, atps []float64
		for _, s := range pooled.Stats {
			ocrs = append(ocrs, s.OCR)
			atps = append(atps, s.ATP)
		}
		c := Curve{
			Value:   values[i],
			MeanOCR: pooled.Summary.MeanOCR,
			MeanATP: pooled.Summary.MeanATP,
			OCRCDF:  metrics.NewCDF(ocrs),
			ATPCDF:  metrics.NewCDF(atps),
		}
		return c, fmt.Sprintf("%s %s=%d", name, r.Param, values[i]), nil
	})
	r.Curves = curves
	return err
}

// Best returns the swept value with the highest mean OCR (paper: K = 3,
// M = 40).
func (r *CDFResult) Best() int {
	best, bestOCR := 0, -1.0
	for _, c := range r.Curves {
		if c.MeanOCR > bestOCR {
			bestOCR = c.MeanOCR
			best = c.Value
		}
	}
	return best
}

// label names a curve "<Param>=<value>".
func (r *CDFResult) label(c Curve) string { return fmt.Sprintf("%s=%d", r.Param, c.Value) }

// WriteTable prints the CDF curves (x, P(X≤x)) and the means.
func (r *CDFResult) WriteTable(w io.Writer) {
	writeHeader(w, r.title)
	fmt.Fprintf(w, "%-*s  %-9s %-9s\n", r.width, r.Param, "mean OCR", "mean ATP")
	for _, c := range r.Curves {
		fmt.Fprintf(w, "%-*s  %-9.3f %-9.3f\n", r.width, r.label(c), c.MeanOCR, c.MeanATP)
	}
	r.writeCDFs(w, "OCR CDF", func(c Curve) metrics.CDF { return c.OCRCDF })
	r.writeCDFs(w, "ATP CDF", func(c Curve) metrics.CDF { return c.ATPCDF })
}

// writeCDFs prints one CDF per curve sampled on a common [0, 1] grid.
func (r *CDFResult) writeCDFs(w io.Writer, title string, cdf func(Curve) metrics.CDF) {
	points := max(r.CurvePoints, 2)
	fmt.Fprintf(w, "%s:\n%-8s", title, "x")
	for _, c := range r.Curves {
		fmt.Fprintf(w, "  %-6s", r.label(c))
	}
	fmt.Fprintln(w)
	for p := 0; p < points; p++ {
		x := float64(p) / float64(points-1)
		fmt.Fprintf(w, "%-8.2f", x)
		for _, c := range r.Curves {
			fmt.Fprintf(w, "  %-6.3f", cdf(c).P(x))
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV emits <param>, metric, x, value rows: the mean rows (x empty),
// then the CDF samples.
func (r *CDFResult) WriteCSV(w io.Writer) error {
	rows := [][]string{{strings.ToLower(r.Param), "metric", "x", "value"}}
	pts := r.CurvePoints
	if pts < 2 {
		pts = 11
	}
	for _, c := range r.Curves {
		v := strconv.Itoa(c.Value)
		rows = append(rows,
			[]string{v, "mean_ocr", "", f(c.MeanOCR)},
			[]string{v, "mean_atp", "", f(c.MeanATP)})
		for p := 0; p < pts; p++ {
			x := float64(p) / float64(pts-1)
			rows = append(rows,
				[]string{v, "ocr_cdf", f(x), f(c.OCRCDF.P(x))},
				[]string{v, "atp_cdf", f(x), f(c.ATPCDF.P(x))})
		}
	}
	return csv.NewWriter(w).WriteAll(rows)
}
