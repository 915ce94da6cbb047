package medium

import (
	"math"
	"testing"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/phy"
	"mmv2v/internal/units"
	"mmv2v/internal/xrand"
)

// fuzzRx keys a delivery by what was sent to whom, and when.
type fuzzRx struct {
	from, to, payload int
	at                des.Time
}

// FuzzDeliverGroup checks two properties of group resolution on a fixed
// road world under fuzzed roles, beams (quasi-omni included), windows and
// streams: every decoded frame's SINR and SNR are finite, and removing one
// signal never costs another frame its delivery nor lowers its SINR. The
// second holds exactly in floating point — a sum of non-negative terms is
// monotone in each term under round-to-nearest, and so is everything Eq. 3
// does with it — provided no frame outlives the retire grace, which the
// 100 µs duration cap guarantees.
func FuzzDeliverGroup(f *testing.F) {
	w := roadWorld(f, 6, 1, nil)
	n := w.NumVehicles()
	f.Add(uint64(1), uint8(8), uint8(0))
	f.Add(uint64(2), uint8(20), uint8(3))
	f.Add(uint64(3), uint8(2), uint8(1))
	f.Add(uint64(4), uint8(40), uint8(39))
	f.Fuzz(func(t *testing.T, seed uint64, signals, drop uint8) {
		if signals == 0 {
			t.Skip()
		}
		type signal struct {
			from   int
			beam   phy.Beam
			start  time.Duration
			dur    time.Duration
			stream bool
		}
		rng := xrand.New(seed)
		s := script{w: w}
		sigs := make([]signal, signals)
		for k := range sigs {
			i := rng.Intn(n)
			sigs[k] = signal{
				from:   i,
				beam:   s.beam(rng, i),
				start:  time.Duration(rng.Intn(40)) * time.Microsecond,
				dur:    time.Duration(1+rng.Intn(100)) * time.Microsecond,
				stream: rng.Bool(0.1),
			}
		}
		listen := make([]phy.Beam, n)
		for i := range listen {
			listen[i] = s.beam(rng, i)
		}
		run := func(skip int) map[fuzzRx]units.DB {
			sim := des.New()
			m := New(sim, w)
			got := map[fuzzRx]units.DB{}
			for i := 0; i < n; i++ {
				m.StartListen(i, listen[i], func(d Delivery) {
					for _, v := range []float64{d.SINRdB.Decibels(), d.SNRdB.Decibels()} {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("delivery %+v has non-finite SINR/SNR", d)
						}
					}
					got[fuzzRx{d.From, d.To, d.Payload.(int), d.At}] = d.SINRdB
				})
			}
			for k, sg := range sigs {
				if k == skip {
					continue
				}
				sim.ScheduleAt(des.At(sg.start), "fuzz.tx", func() {
					if sg.stream {
						m.StartStream(sg.from, sg.beam)
						return
					}
					m.Transmit(sg.from, sg.beam, sg.dur, k)
				})
			}
			sim.RunAll()
			return got
		}
		skip := int(drop) % len(sigs)
		full, fewer := run(-1), run(skip)
		for rx, sinr := range full {
			if rx.payload == skip {
				continue
			}
			after, ok := fewer[rx]
			if !ok {
				t.Fatalf("removing signal %d lost delivery %+v (SINR %v dB)", skip, rx, sinr)
			}
			if after < sinr {
				t.Fatalf("removing signal %d lowered delivery %+v SINR %v -> %v dB", skip, rx, sinr, after)
			}
		}
	})
}
