package experiments

import (
	"encoding/csv"
	"fmt"
	"io"

	"mmv2v/internal/baseline"
	"mmv2v/internal/core"
	"mmv2v/internal/metrics"
	"mmv2v/internal/obs"
	"mmv2v/internal/sim"
)

// Cell is one protocol's pooled measurement in a protocol comparison.
type Cell struct {
	Protocol string
	Summary  metrics.Summary
	// AvgNeighbors is the mean LOS neighbor count at window start.
	AvgNeighbors float64
	// OCRCI95 is the half-width of the 95 % CI over per-vehicle OCR.
	OCRCI95 float64
	// MeanLatencySec is the mean time from window start to each neighbor
	// pair's first exchanged bit (NaN when nothing was exchanged).
	MeanLatencySec float64
	// Trials/Failures echo the crash-isolation summary of the cell's
	// pooled run.
	Trials   int
	Failures int
	// Obs and Series are the cell's pooled layer statistics and windowed
	// samples (nil unless the options set Stats).
	Obs    *obs.Registry
	Series *obs.Series
}

// newCell summarizes one protocol's pooled run.
func newCell(pooled *sim.Result) Cell {
	ocrs := make([]float64, 0, len(pooled.Stats))
	for _, st := range pooled.Stats {
		ocrs = append(ocrs, st.OCR)
	}
	_, ci := metrics.MeanCI95(ocrs)
	return Cell{
		Protocol:       pooled.Protocol,
		Summary:        pooled.Summary,
		AvgNeighbors:   pooled.AvgNeighbors,
		OCRCI95:        ci,
		MeanLatencySec: pooled.MeanLatencySec(),
		Trials:         pooled.Trials,
		Failures:       len(pooled.Failures),
		Obs:            pooled.Obs,
		Series:         pooled.Series,
	}
}

// paperProtocols are the OHM schemes the paper compares, in its order:
// mmV2V, ROP and IEEE 802.11ad.
func paperProtocols() []sim.Factory {
	return []sim.Factory{
		core.Factory(core.DefaultParams()),
		baseline.ROPFactory(baseline.DefaultROPParams()),
		baseline.ADFactory(baseline.DefaultADParams()),
	}
}

// Grid is a protocol comparison swept over one axis: traffic density in
// Fig. 9, fault intensity in the fault sweep, truck share in the truck
// study.
type Grid struct {
	// Name and Axis scope the stats/series rows
	// "<name>/<axis>=<x>/<protocol>" and label progress
	// "<name> <axis>=<x> <protocol>".
	Name, Axis string
	// Column heads the axis column of the CSV export.
	Column    string
	Protocols []string
	Rows      []GridRow
}

// GridRow is one axis value's measurements, one cell per protocol.
type GridRow struct {
	X float64
	// AvgNeighbors is the row's mean LOS neighbor count (the traffic does
	// not depend on the protocol).
	AvgNeighbors float64
	Cells        []Cell
}

// runGrid measures every (axis value, protocol) cell of a grid on one
// runner; at builds the scenario of an axis value.
func runGrid(g Grid, run Run, xs []float64, protocols []sim.Factory, at func(x float64) sim.Config) (Grid, error) {
	np := len(protocols)
	cells, err := sweep(g.Name, run, len(xs)*np, func(r *sim.Runner, k int) (Cell, string, error) {
		x := xs[k/np]
		pooled, err := r.RunTrials(at(x), protocols[k%np], run.Trials)
		if err != nil {
			return Cell{}, "", err
		}
		return newCell(pooled), fmt.Sprintf("%s %s=%g %s", g.Name, g.Axis, x, pooled.Protocol), nil
	})
	if err != nil {
		return Grid{}, err
	}
	for i, x := range xs {
		row := cells[i*np : (i+1)*np]
		g.Rows = append(g.Rows, GridRow{X: x, AvgNeighbors: row[np-1].AvgNeighbors, Cells: row})
	}
	for _, c := range g.Rows[0].Cells {
		g.Protocols = append(g.Protocols, c.Protocol)
	}
	return g, nil
}

// Get returns a protocol's cell at an axis value.
func (g *Grid) Get(x float64, protocol string) (Cell, bool) {
	for _, row := range g.Rows {
		//mmv2v:exact grid lookup: axis values are exact sweep literals carried through unmodified
		if row.X != x {
			continue
		}
		for _, c := range row.Cells {
			if c.Protocol == protocol {
				return c, true
			}
		}
	}
	return Cell{}, false
}

func (g *Grid) scope(row GridRow, c Cell) string {
	return fmt.Sprintf("%s/%s=%g/%s", g.Name, g.Axis, row.X, c.Protocol)
}

// StatsRows exports every cell's layer statistics (when the run had
// Stats), each row scoped "<name>/<axis>=<x>/<protocol>", sorted by
// (scope, name, kind). Nil-Obs cells contribute nothing.
func (g *Grid) StatsRows() []obs.Row {
	var rows []obs.Row
	for _, row := range g.Rows {
		for _, c := range row.Cells {
			rows = append(rows, c.Obs.Rows(g.scope(row, c))...)
		}
	}
	obs.SortRows(rows)
	return rows
}

// SeriesRows exports every cell's windowed samples (when the run had
// Series), each row scoped "<name>/<axis>=<x>/<protocol>", sorted by
// (scope, window, name, kind). Nil-Series cells contribute nothing.
func (g *Grid) SeriesRows() []obs.SeriesRow {
	var rows []obs.SeriesRow
	for _, row := range g.Rows {
		for _, c := range row.Cells {
			rows = append(rows, obs.SeriesRows(c.Series.Points(), g.scope(row, c))...)
		}
	}
	obs.SortSeriesRows(rows)
	return rows
}

// WriteCSV emits <axis>, avg_neighbors, protocol, ocr, atp, dtp rows.
func (g *Grid) WriteCSV(w io.Writer) error {
	header := []string{"avg_neighbors", "protocol", "ocr", "atp", "dtp"}
	return g.writeCSV(w, header, func(row GridRow, c Cell) []string {
		return []string{
			f(row.AvgNeighbors), c.Protocol,
			f(c.Summary.MeanOCR), f(c.Summary.MeanATP), f(c.Summary.MeanDTP),
		}
	})
}

// writeCSV emits one row per cell: the axis value, then the cell's
// columns.
func (g *Grid) writeCSV(w io.Writer, header []string, cols func(GridRow, Cell) []string) error {
	rows := [][]string{append([]string{g.Column}, header...)}
	for _, row := range g.Rows {
		for _, c := range row.Cells {
			rows = append(rows, append([]string{f(row.X)}, cols(row, c)...))
		}
	}
	return csv.NewWriter(w).WriteAll(rows)
}
