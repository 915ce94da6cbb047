package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
)

// The WriteCSV methods emit each experiment in long format (one observation
// per row), the layout plotting tools consume directly.

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// WriteCSV emits density, avg_neighbors, c, slot, capacity_bps rows.
func (r *Fig6Result) WriteCSV(w io.Writer) error {
	rows := [][]string{{"density_vpl", "avg_neighbors", "c", "slot", "capacity_bps"}}
	for _, sc := range r.Scenarios {
		for _, s := range sc.Series {
			for m, cap := range s.CapacityBps {
				rows = append(rows, []string{
					f(sc.DensityVPL), f(sc.AvgNeighbors),
					strconv.Itoa(s.C), strconv.Itoa(m + 1), f(cap),
				})
			}
		}
	}
	return csv.NewWriter(w).WriteAll(rows)
}

// WriteCSV emits p, k, analytic, empirical, sim rows (sim only for p=0.5).
func (r *Theorem2Result) WriteCSV(w io.Writer) error {
	rows := [][]string{{"p", "k", "analytic", "empirical", "in_sim"}}
	for _, c := range r.Cells {
		inSim := ""
		//mmv2v:exact grid lookup: cell P values are exact literals from the sweep definition, never computed
		if c.P == 0.5 {
			if v, ok := r.SimRatioPerK[c.K]; ok {
				inSim = f(v)
			}
		}
		rows = append(rows, []string{f(c.P), strconv.Itoa(c.K), f(c.Analytic), f(c.Empirical), inSim})
	}
	return csv.NewWriter(w).WriteAll(rows)
}

// WriteCSV emits variant, ocr, atp, dtp rows.
func (r *AblationResult) WriteCSV(w io.Writer) error {
	rows := [][]string{{"variant", "ocr", "atp", "dtp"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Variant, f(row.Summary.MeanOCR), f(row.Summary.MeanATP), f(row.Summary.MeanDTP),
		})
	}
	return csv.NewWriter(w).WriteAll(rows)
}
