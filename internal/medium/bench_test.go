package medium

import (
	"testing"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/geom"
	"mmv2v/internal/phy"
	"mmv2v/internal/traffic"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// BenchmarkSectorSlotResolution measures one SND-style sector slot at the
// paper's density: half the vehicles transmit SSWs while the other half
// listen — the simulator's hottest control-plane operation. One medium
// serves every op, as in a trial, so its per-medium scratch is not charged
// to each slot.
func BenchmarkSectorSlotResolution(b *testing.B) {
	road, err := traffic.New(traffic.DefaultConfig(15), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	w, err := world.New(world.DefaultConfig(), road)
	if err != nil {
		b.Fatal(err)
	}
	sectors := geom.Sectors{Count: 24}
	sim := des.New()
	m := New(sim, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sector := i % 24
		txBeam := phy.Beam{Bearing: sectors.Center(sector), Width: geom.Deg(30)}
		rxBeam := phy.Beam{Bearing: sectors.Center(sectors.Opposite(sector)), Width: geom.Deg(12)}
		for v := 0; v < w.NumVehicles(); v++ {
			if v%2 == 0 {
				m.StartListen(v, rxBeam, func(Delivery) {})
			}
		}
		for v := 0; v < w.NumVehicles(); v++ {
			if v%2 == 1 {
				m.Transmit(v, txBeam, 15*time.Microsecond, v)
			}
		}
		sim.RunAll()
	}
}

func BenchmarkSINRNow(b *testing.B) {
	road, err := traffic.New(traffic.DefaultConfig(15), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	w, err := world.New(world.DefaultConfig(), road)
	if err != nil {
		b.Fatal(err)
	}
	sim := des.New()
	m := New(sim, w)
	// 20 interfering streams.
	for v := 0; v < 40; v += 2 {
		if ls := w.Links(v); len(ls) > 0 {
			m.StartStream(v, phy.Beam{Bearing: ls[0].Bearing, Width: geom.Deg(3)})
		}
	}
	var tx, rx int
	for i := 1; i < w.NumVehicles(); i += 2 {
		if ls := w.Links(i); len(ls) > 0 {
			tx, rx = i, ls[0].J
			break
		}
	}
	lnk, _ := w.Link(tx, rx)
	back, _ := w.Link(rx, tx)
	txBeam := phy.Beam{Bearing: lnk.Bearing, Width: geom.Deg(3)}
	rxBeam := phy.Beam{Bearing: back.Bearing, Width: geom.Deg(3)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.SINRNow(tx, rx, txBeam, rxBeam)
	}
}

// benchDeliverGroup measures steady-state resolution of one SND-style
// sector slot on a persistent medium: the even vehicles listen on the
// opposite sector, the odd ones transmit a 15 µs SSW, and the slot's single
// resolve event runs deliverGroup over the whole group. The medium, its
// records and its per-listener scratch are reused across iterations, as in
// a trial, so the only allocation per op is the DES event of that resolve.
func benchDeliverGroup(b *testing.B, w *world.World) {
	sim := des.New()
	m := New(sim, w)
	sectors := geom.Sectors{Count: 24}
	delivered := 0
	handler := func(Delivery) { delivered++ }
	var payload any = "ssw"
	slot := func(k int) {
		sector := k % 24
		txBeam := phy.Beam{Bearing: sectors.Center(sector), Width: geom.Deg(30)}
		rxBeam := phy.Beam{Bearing: sectors.Center(sectors.Opposite(sector)), Width: geom.Deg(12)}
		for v := 0; v < w.NumVehicles(); v += 2 {
			m.StartListen(v, rxBeam, handler)
		}
		for v := 1; v < w.NumVehicles(); v += 2 {
			m.Transmit(v, txBeam, 15*time.Microsecond, payload)
		}
		// Each slot starts after the previous one's frames have retired.
		sim.Run(sim.Now().Add(200 * time.Microsecond))
	}
	// Warm every sector once so the kernel scratch reaches its
	// steady-state capacity before timing; the warm sweep's delivery count
	// is reported as a deterministic work check.
	for k := 0; k < 24; k++ {
		slot(k)
	}
	warm := delivered
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(warm)/24, "deliveries/op")
}

// BenchmarkDeliverGroup15vpl pins the interference kernel at the paper's
// Fig. 9 density (90 vehicles on the 1 km road).
func BenchmarkDeliverGroup15vpl(b *testing.B) { benchDeliverGroup(b, roadWorld(b, 15, 1, nil)) }

// BenchmarkDeliverGroup30vpl pins it at twice the density.
func BenchmarkDeliverGroup30vpl(b *testing.B) { benchDeliverGroup(b, roadWorld(b, 30, 1, nil)) }

// BenchmarkDeliverGroupGrid2k pins it on a 2,000-vehicle 6×6 city grid,
// where each transmitter reaches only a small share of the listeners.
func BenchmarkDeliverGroupGrid2k(b *testing.B) {
	g := traffic.DefaultGridConfig(2000)
	g.Rows, g.Cols = 6, 6
	nw, err := traffic.NewNetwork(g.Network(), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	w, err := world.New(world.DefaultConfig(), nw)
	if err != nil {
		b.Fatal(err)
	}
	benchDeliverGroup(b, w)
}
