package world

import (
	"math"
	"testing"

	"mmv2v/internal/channel"
	"mmv2v/internal/geom"
	"mmv2v/internal/phy"
	"mmv2v/internal/traffic"
	"mmv2v/internal/xrand"
)

// TestLinkRxPowerMatchesPatternMath pins the pattern-handle path the medium
// kernel uses to Eq. 2 evaluated from a freshly derived pattern: for every
// directed pair in range and a spread of beams, quasi-omni included, both
// LinkRxPowerMw and RxPowerMw return the bits of the plain product.
func TestLinkRxPowerMatchesPatternMath(t *testing.T) {
	road, err := traffic.New(traffic.DefaultConfig(15), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(DefaultConfig(), road)
	if err != nil {
		t.Fatal(err)
	}
	beams := []phy.Beam{phy.Omni}
	for _, deg := range []float64{3, 12, 30, 60} {
		for _, b := range []float64{0, 1, 2.5, 4, 6.2} {
			beams = append(beams, phy.Beam{Bearing: geom.Bearing(b), Width: geom.Deg(deg)})
		}
	}
	gain := func(b phy.Beam, toward geom.Bearing) float64 {
		if b.IsOmni() {
			return 1
		}
		return channel.NewPattern(b.Width, w.cfg.Channel.SideLobeDB).Gain(geom.AngleDiff(b.Bearing, toward))
	}
	pairs := 0
	for i := 0; i < w.NumVehicles(); i++ {
		for _, lnk := range w.Links(i) {
			back, _ := w.Link(lnk.J, i)
			for k, tb := range beams {
				rb := beams[(k*7+i)%len(beams)]
				want := w.model.TxPowerMw().MW() * gain(tb, lnk.Bearing) * lnk.PathGainLin * gain(rb, back.Bearing)
				viaLink := w.LinkRxPowerMw(lnk, back.Bearing, w.Aim(tb), w.Aim(rb)).MW()
				viaLookup := w.RxPowerMw(i, lnk.J, tb, rb).MW()
				if math.Float64bits(viaLink) != math.Float64bits(want) || math.Float64bits(viaLookup) != math.Float64bits(want) {
					t.Fatalf("pair %d->%d beams %+v/%+v: LinkRxPowerMw %v, RxPowerMw %v, want %v", i, lnk.J, tb, rb, viaLink, viaLookup, want)
				}
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("world has no links")
	}
	if g := w.Aim(phy.Omni).Gain(1.234); g != 1 {
		t.Errorf("quasi-omni aim gain %v, want 1", g)
	}
}
