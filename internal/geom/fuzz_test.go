package geom

import (
	"math"
	"testing"
)

func FuzzNormalizeBearing(f *testing.F) {
	f.Add(0.0)
	f.Add(math.Pi)
	f.Add(-7.5)
	f.Add(123456.789)
	f.Fuzz(func(t *testing.T, b float64) {
		if math.IsNaN(b) || math.IsInf(b, 0) || math.Abs(b) > 1e12 {
			t.Skip()
		}
		got := float64(NormalizeBearing(Bearing(b)))
		if got < 0 || got >= 2*math.Pi {
			t.Fatalf("NormalizeBearing(%v) = %v outside [0, 2π)", b, got)
		}
	})
}

func FuzzSectorsFromBearing(f *testing.F) {
	f.Add(24, 1.0)
	f.Add(8, -0.5)
	f.Fuzz(func(t *testing.T, count int, b float64) {
		if count <= 0 || count > 720 || count%2 != 0 {
			t.Skip()
		}
		if math.IsNaN(b) || math.IsInf(b, 0) || math.Abs(b) > 1e9 {
			t.Skip()
		}
		s := Sectors{Count: count}
		idx := s.FromBearing(Bearing(b))
		if idx < 0 || idx >= count {
			t.Fatalf("FromBearing out of range: %d of %d", idx, count)
		}
		// The chosen sector's center is within half a pitch of the bearing.
		if d := AbsAngleDiff(s.Center(idx), NormalizeBearing(Bearing(b))); d > s.Pitch()/2+1e-9 {
			t.Fatalf("sector %d center off by %v > pitch/2", idx, d)
		}
	})
}

// FuzzSegmentBlocked fuzzes the whole LOS-blockage decision the world layer
// makes (world.Refresh: does the segment between two vehicles cross a
// blocker's body rectangle?) — arbitrary endpoints AND arbitrary blocker
// pose — asserting it never panics and is symmetric in the endpoints.
func FuzzSegmentBlocked(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 10.0, 5.0, 5.0, 0.7, 2.3, 0.9)
	f.Add(-3.0, 4.0, -3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(1.0, 1.0, 2.0, 2.0, 1.5, 1.5, 6.2, 100.0, 100.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, heading, halfLen, halfWid float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, heading, halfLen, halfWid} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		r := Rect{Center: Vec{cx, cy}, Heading: Bearing(heading), HalfLen: halfLen, HalfWid: halfWid}
		a, b := Vec{ax, ay}, Vec{bx, by}
		if SegmentIntersectsRect(a, b, r) != SegmentIntersectsRect(b, a, r) {
			t.Fatalf("blockage not symmetric in endpoints: a=%v b=%v rect=%+v", a, b, r)
		}
	})
}

func FuzzSegmentIntersectsRectSymmetry(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 10.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by float64) {
		for _, v := range []float64{ax, ay, bx, by} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		r := Rect{Center: Vec{5, 5}, Heading: Bearing(0.7), HalfLen: 2.3, HalfWid: 0.9}
		a, b := Vec{ax, ay}, Vec{bx, by}
		if SegmentIntersectsRect(a, b, r) != SegmentIntersectsRect(b, a, r) {
			t.Fatal("intersection not symmetric in endpoints")
		}
	})
}

// angleDiffMod is AngleDiff as it was written before the in-range fast
// path: an unconditional math.Mod reduction.
func angleDiffMod(a, b Bearing) float64 {
	d := math.Mod(float64(b-a), 2*math.Pi)
	switch {
	case d > math.Pi:
		d -= 2 * math.Pi
	case d <= -math.Pi:
		d += 2 * math.Pi
	}
	return d
}

// FuzzAngleDiff requires AngleDiff to match the unconditional math.Mod form
// bit for bit on every input, non-finite and signed-zero operands included:
// the fast path may only skip a reduction that is the identity.
func FuzzAngleDiff(f *testing.F) {
	twoPi := 2 * math.Pi
	for _, v := range []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi, twoPi, -twoPi,
		math.Nextafter(twoPi, 0), math.Nextafter(-twoPi, 0), math.Nextafter(twoPi, 7),
		3 * math.Pi, -3 * math.Pi, 1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add(0.0, v)
		f.Add(v, 0.0)
		f.Add(math.Copysign(0, -1), v)
	}
	f.Add(math.Pi, -math.Pi)
	f.Add(6.0, 0.1)
	f.Add(math.Inf(1), math.Inf(1))
	f.Fuzz(func(t *testing.T, a, b float64) {
		got := math.Float64bits(AngleDiff(Bearing(a), Bearing(b)).Rad())
		want := math.Float64bits(angleDiffMod(Bearing(a), Bearing(b)))
		if got != want {
			t.Fatalf("AngleDiff(%v, %v) bits %#x, math.Mod form %#x", a, b, got, want)
		}
	})
}
