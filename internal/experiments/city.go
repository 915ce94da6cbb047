package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"mmv2v/internal/sim"
	"mmv2v/internal/traffic"
)

// CityOptions parameterize the city-grid scenario (not in the paper): the
// OHM protocol comparison moved from the straight 1 km road onto a
// Manhattan road-graph network, where intersections, cross-street blockage
// and turning traffic stress discovery and matching differently than
// highway platooning does.
type CityOptions struct {
	Run
	// Grid is the road-network scenario (intersection counts, block length,
	// vehicle count).
	Grid traffic.GridConfig
}

// DefaultCityOptions returns a 3×3-intersection downtown grid with 180
// vehicles — small enough for interactive runs, dense enough that every
// street segment carries traffic. (The 10k-vehicle scale run lives in the
// CLIs, where wall-clock may be measured.)
func DefaultCityOptions() CityOptions {
	g := traffic.DefaultGridConfig(180)
	g.Rows, g.Cols = 3, 3
	g.BlockM = 200
	return CityOptions{
		Run:  Run{Seed: 1, Trials: 3},
		Grid: g,
	}
}

// CityResult is the full city-grid comparison.
type CityResult struct {
	Opts CityOptions
	// AvgNeighbors is the mean LOS neighbor count on the grid (mmV2V run).
	AvgNeighbors float64
	Cells        []Cell
}

// City runs the OHM protocol comparison on the grid network.
func City(opts CityOptions) (*CityResult, error) {
	if err := opts.Grid.Validate(); err != nil {
		return nil, err
	}
	protocols := paperProtocols()
	cells, err := sweep("city", opts.Run, len(protocols), func(r *sim.Runner, k int) (Cell, string, error) {
		grid := opts.Grid
		cfg := sim.DefaultConfig(15, opts.Seed)
		cfg.Grid = &grid
		pooled, err := r.RunTrials(cfg, protocols[k], opts.Trials)
		if err != nil {
			return Cell{}, "", err
		}
		return newCell(pooled), "city " + pooled.Protocol, nil
	})
	if err != nil {
		return nil, err
	}
	return &CityResult{Opts: opts, AvgNeighbors: cells[0].AvgNeighbors, Cells: cells}, nil
}

// WriteTable prints the protocol comparison on the grid.
func (r *CityResult) WriteTable(w io.Writer) {
	g := r.Opts.Grid
	writeHeader(w, "City grid — OHM protocols on a Manhattan road network")
	fmt.Fprintf(w, "grid: %dx%d intersections, %g m blocks, %d vehicles, avg |N| %.1f\n",
		g.Rows, g.Cols, g.BlockM, g.Vehicles, r.AvgNeighbors)
	fmt.Fprintf(w, "%-14s %-16s %-10s %-10s\n", "protocol", "OCR", "ATP", "DTP")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-14s %-6.3f ±%-7.3f %-10.3f %-10.3f\n",
			c.Protocol, c.Summary.MeanOCR, c.OCRCI95, c.Summary.MeanATP, c.Summary.MeanDTP)
	}
}

// WriteCSV emits protocol, ocr, ocr_ci95, atp, dtp rows.
func (r *CityResult) WriteCSV(w io.Writer) error {
	rows := [][]string{{"rows", "cols", "block_m", "vehicles", "avg_neighbors", "protocol", "ocr", "ocr_ci95", "atp", "dtp"}}
	g := r.Opts.Grid
	for _, c := range r.Cells {
		rows = append(rows, []string{
			strconv.Itoa(g.Rows), strconv.Itoa(g.Cols), f(g.BlockM), strconv.Itoa(g.Vehicles),
			f(r.AvgNeighbors), c.Protocol,
			f(c.Summary.MeanOCR), f(c.OCRCI95), f(c.Summary.MeanATP), f(c.Summary.MeanDTP),
		})
	}
	return csv.NewWriter(w).WriteAll(rows)
}
