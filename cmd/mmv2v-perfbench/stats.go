package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"mmv2v/internal/metrics"
	"mmv2v/internal/world"
)

// minBeyond is how many samples must lie beyond a reported tail percentile:
// a p90 over fewer than 100 samples rests on fewer than ten slow ticks.
const minBeyond = 10

// tailCandidates are the tail percentiles the report considers, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90}

// rank is the 1-based nearest-rank index of quantile q over n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// beyond is how many of n samples lie strictly above the q quantile's rank.
func beyond(n int, q float64) int { return n - rank(n, q) }

// quantile returns the nearest-rank q quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	return sorted[rank(len(sorted), q)-1]
}

// highestTail returns the highest candidate percentile with at least
// minBeyond samples beyond it, and false when even the lowest has fewer.
func highestTail(n int) (float64, bool) {
	for _, q := range tailCandidates {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// tickSummary holds the per-tick host-time percentiles of a run.
type tickSummary struct {
	N        int
	P50, P90 float64
	// Tail is the highest percentile with minBeyond samples beyond it, and
	// TailMs its value; reported beside the fixed p90.
	Tail, TailMs float64
}

// summarizeTicks sorts the samples in place and reduces them. A run whose
// p90 has fewer than minBeyond samples beyond it is an error: the workload
// is too short to report the metric.
func summarizeTicks(ms []float64) (tickSummary, error) {
	if beyond(len(ms), 0.90) < minBeyond {
		return tickSummary{}, fmt.Errorf("%d tick samples leave fewer than %d beyond p90", len(ms), minBeyond)
	}
	sort.Float64s(ms)
	tail, _ := highestTail(len(ms))
	return tickSummary{
		N:      len(ms),
		P50:    quantile(ms, 0.50),
		P90:    quantile(ms, 0.90),
		Tail:   tail,
		TailMs: quantile(ms, tail),
	}, nil
}

// median returns the median of xs (mean of the middle pair for even
// lengths) without reordering the caller's slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digest is an FNV-1a-64 hash over a canonical little-endian encoding, the
// same construction as the run log's per-window digests.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	// FNV's Write never fails; hash.Hash only carries the error for io.Writer.
	_, _ = d.h.Write(d.buf[:])
}

func (d *digest) int(v int)      { d.u64(uint64(v)) }
func (d *digest) f64(v float64)  { d.u64(math.Float64bits(v)) }
func (d *digest) str(s string)   { d.int(len(s)); _, _ = d.h.Write([]byte(s)) }
func (d *digest) sum() uint64    { return d.h.Sum64() }
func hexDigest(v uint64) string  { return fmt.Sprintf("%016x", v) }
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// trialDigest hashes one protocol trial's per-vehicle OCR/ATP/DTP (every
// window, in window order) prefixed by protocol and trial index.
func trialDigest(protocol string, trial int, stats []metrics.VehicleStats) uint64 {
	d := newDigest()
	d.str(protocol)
	d.int(trial)
	d.int(len(stats))
	for _, s := range stats {
		d.int(s.Vehicle)
		d.int(s.Neighbors)
		d.f64(s.OCR)
		d.f64(s.ATP)
		d.f64(s.DTP)
	}
	return d.sum()
}

// tableDigest hashes the link-table shape a city drive ends with — the two
// observables the public GridWorld surface exposes.
func tableDigest(totalLinks int, avgNeighbors float64) uint64 {
	d := newDigest()
	d.int(totalLinks)
	d.f64(avgNeighbors)
	return d.sum()
}

// linkSamples is how many evenly spaced vehicles linkSampleDigest reads.
const linkSamples = 64

// linkSampleDigest hashes every link-table entry of a fixed, evenly spaced
// sample of vehicles: which peers each sees, at what distance, bearing,
// blocker count and path gain.
func linkSampleDigest(w *world.World) uint64 {
	d := newDigest()
	n := w.NumVehicles()
	for k := 0; k < linkSamples; k++ {
		i := k * n / linkSamples
		ls := w.Links(i)
		d.int(i)
		d.int(len(ls))
		for _, l := range ls {
			d.int(l.J)
			d.f64(l.Dist.M())
			d.f64(float64(l.Bearing))
			d.int(l.Blockers)
			d.f64(l.PathGainLin)
		}
	}
	return d.sum()
}
