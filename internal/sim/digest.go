// Canonical digests of a run (DESIGN.md §11): the scenario fingerprint
// that ties a run log to the config it replays, and the fixed-order window
// encoding whose FNV hash pins each (trial, window) result byte for byte.
package sim

import (
	"fmt"
	"hash/fnv"
	"math"

	"mmv2v/internal/metrics"
	"mmv2v/internal/persist"
)

// Fingerprint hashes the scenario-defining configuration fields: everything
// that changes what a trial computes (seed, traffic, world, timing, demand,
// windows, warm-up, faults, stats) and nothing that only changes how it is
// executed (workers, tracing, monitoring). A run log stores the
// fingerprint of the config it recorded, so replaying it under a recipe
// that would compute something else fails loudly instead of diverging
// silently.
func Fingerprint(cfg Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d|traffic=%#v|world=%#v|timing=%#v|demand=%d|winsec=%d|windows=%d|warmup=%d|stats=%t",
		cfg.Seed, cfg.Traffic, cfg.World, cfg.Timing,
		math.Float64bits(cfg.DemandBits), math.Float64bits(cfg.WindowSec),
		cfg.Windows, math.Float64bits(cfg.WarmupSec), cfg.Stats)
	if cfg.Grid != nil {
		fmt.Fprintf(h, "|grid=%#v", *cfg.Grid)
	}
	if cfg.Faults != nil {
		fmt.Fprintf(h, "|faults=%#v", *cfg.Faults)
	}
	return h.Sum64()
}

// vehicleStatsWire is the encoded size of one metrics.VehicleStats, used to
// clamp hostile element counts while decoding.
const vehicleStatsWire = 8 + 8 + 3*8

// EncodeWindowResult appends one window's results in the canonical form
// shared by run-log records and digests: field order is fixed and floats
// are encoded as IEEE-754 bits, so equal results always produce equal
// bytes.
func EncodeWindowResult(e *persist.Encoder, w WindowResult) {
	e.Int(w.Window)
	e.U32(uint32(len(w.Stats)))
	for _, vs := range w.Stats {
		e.Int(vs.Vehicle)
		e.Int(vs.Neighbors)
		e.F64(vs.OCR)
		e.F64(vs.ATP)
		e.F64(vs.DTP)
	}
	e.Int(w.Summary.Vehicles)
	e.F64(w.Summary.MeanOCR)
	e.F64(w.Summary.MeanATP)
	e.F64(w.Summary.MeanDTP)
	e.F64(w.AvgNeighbors)
	e.F64(w.LatencySumSec)
	e.Int(w.LatencyPairs)
}

// DecodeWindowResult restores one window's results from the canonical form.
func DecodeWindowResult(d *persist.Decoder) WindowResult {
	var w WindowResult
	w.Window = d.Int()
	ns := d.Count(vehicleStatsWire)
	for i := 0; i < ns; i++ {
		w.Stats = append(w.Stats, metrics.VehicleStats{
			Vehicle:   d.Int(),
			Neighbors: d.Int(),
			OCR:       d.F64(),
			ATP:       d.F64(),
			DTP:       d.F64(),
		})
		if d.Err() != nil {
			return w
		}
	}
	w.Summary.Vehicles = d.Int()
	w.Summary.MeanOCR = d.F64()
	w.Summary.MeanATP = d.F64()
	w.Summary.MeanDTP = d.F64()
	w.AvgNeighbors = d.F64()
	w.LatencySumSec = d.F64()
	w.LatencyPairs = d.Int()
	return w
}

// WindowDigest hashes one window's results in canonical form, prefixed with
// the trial index so equal windows of different trials digest differently.
// Run logs record one digest per (trial, window); replay -verify re-executes
// the run and compares digests to pin byte-identical reproduction.
func WindowDigest(trial int, w WindowResult) uint64 {
	var e persist.Encoder
	e.Int(trial)
	EncodeWindowResult(&e, w)
	h := fnv.New64a()
	// fnv's Write never fails; the hash.Hash interface just carries error.
	_, _ = h.Write(e.Bytes())
	return h.Sum64()
}
