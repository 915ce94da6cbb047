package medium

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/faults"
	"mmv2v/internal/geom"
	"mmv2v/internal/obs"
	"mmv2v/internal/phy"
	"mmv2v/internal/traffic"
	"mmv2v/internal/units"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// refMedium is the brute-force reference the production medium is diffed
// against. It evaluates Eq. 3 literally: for every (listener, frame) it
// sums the received power of every signal on the air in the group window
// through the public world.RxPowerMw, with no pattern handles, no link-slice
// walk, no reuse of a term and no recycled records. Its term order — the
// transmissions in on-air order, each listener's total taken as its turn
// comes — is the contract the production kernel must reproduce bit for bit.
type refMedium struct {
	sim       *des.Simulator
	w         *world.World
	active    []*refTx
	listeners []refListener
	nextID    int64
	resolveAt map[des.Time]bool
	faults    FaultModel

	Delivered, Lost, FaultLost, FaultMutedTx uint64
	sinrDB                                   *obs.Histogram
}

type refTx struct {
	id               int64
	from             int
	beam             phy.Beam
	start, end       des.Time
	payload          any
	stream, resolved bool
}

type refListener struct {
	beam    phy.Beam
	since   des.Time
	handler Handler
	active  bool
}

func newRefMedium(sim *des.Simulator, w *world.World, reg *obs.Registry) *refMedium {
	return &refMedium{sim: sim, w: w, nextID: 1,
		listeners: make([]refListener, w.NumVehicles()), resolveAt: map[des.Time]bool{},
		sinrDB: reg.Histogram("medium.control_sinr_db", obs.LinearBuckets(-10, 5, 9))}
}

func (m *refMedium) SetFaults(f FaultModel) { m.faults = f }

func (m *refMedium) StartListen(i int, beam phy.Beam, h Handler) {
	m.listeners[i] = refListener{beam: beam, since: m.sim.Now(), handler: h, active: true}
}

func (m *refMedium) StopListen(i int) { m.listeners[i] = refListener{} }

func (m *refMedium) Transmit(from int, beam phy.Beam, dur time.Duration, payload any) {
	now := m.sim.Now()
	start := now
	if m.faults != nil {
		if !m.faults.RadioUp(from, now) {
			m.FaultMutedTx++
			return
		}
		start = now.Add(m.faults.TxDelay(from, now))
	}
	tx := &refTx{id: m.nextID, from: from, beam: beam, start: start, end: start.Add(dur), payload: payload}
	m.nextID++
	m.active = append(m.active, tx)
	if !m.resolveAt[tx.end] {
		m.resolveAt[tx.end] = true
		m.sim.ScheduleAt(tx.end, "ref.resolve", m.resolve)
	}
}

func (m *refMedium) StartStream(from int, beam phy.Beam) StreamID {
	tx := &refTx{id: m.nextID, from: from, beam: beam, start: m.sim.Now(), end: des.Infinity, stream: true}
	m.nextID++
	m.active = append(m.active, tx)
	return StreamID(tx.id)
}

func (m *refMedium) StopStream(id StreamID) {
	for k, tx := range m.active {
		if tx.id == int64(id) && tx.stream {
			m.active = append(m.active[:k], m.active[k+1:]...)
			return
		}
	}
}

func (m *refMedium) up(i int) bool {
	return m.faults == nil || m.faults.RadioUp(i, m.sim.Now())
}

func (m *refMedium) resolve() {
	now := m.sim.Now()
	delete(m.resolveAt, now)
	var group []*refTx
	for _, tx := range m.active {
		if tx.end == now && !tx.stream && !tx.resolved {
			tx.resolved = true
			group = append(group, tx)
		}
	}
	if len(group) > 0 {
		m.deliver(group)
	}
	var kept []*refTx
	for _, tx := range m.active {
		if tx.end > now || (tx.resolved && tx.end > now.Add(-retireGrace)) {
			kept = append(kept, tx)
		}
	}
	m.active = kept
}

func (m *refMedium) deliver(group []*refTx) {
	now := m.sim.Now()
	noise := m.w.Channel().NoiseMw()
	windowStart := group[0].start
	for _, g := range group {
		windowStart = min(windowStart, g.start)
	}
	for j := range m.listeners {
		l := &m.listeners[j]
		if !l.active || !m.up(j) {
			continue
		}
		// Every signal on the air in the window, in on-air order, as this
		// listener's turn comes.
		total, busy := units.MilliWatt(0), false
		for _, tx := range m.active {
			if !(tx.start < now && windowStart < tx.end) {
				continue
			}
			if tx.from == j {
				busy = true
				continue
			}
			if m.up(tx.from) {
				total += m.w.RxPowerMw(tx.from, j, tx.beam, l.beam)
			}
		}
		if busy {
			continue
		}
		for _, g := range group {
			if g.from == j || l.since > g.start || !m.up(g.from) {
				continue
			}
			desired := m.w.RxPowerMw(g.from, j, g.beam, l.beam)
			//mmv2v:exact RxPowerMw returns exactly 0 as its out-of-range/beam-miss sentinel
			if desired == 0 {
				continue
			}
			sinr := units.RatioDB(desired, noise+(total-desired))
			m.sinrDB.Observe(sinr.Decibels())
			if !phy.ControlDecodable(sinr) {
				if sinr > -10 {
					m.Lost++
				}
				continue
			}
			if m.faults != nil && m.faults.DropControl(g.from, j, now) {
				m.FaultLost++
				continue
			}
			m.Delivered++
			l.handler(Delivery{From: g.from, To: j, Payload: g.payload, SINRdB: sinr,
				SNRdB: units.RatioDB(desired, noise), At: now})
			if !l.active {
				break
			}
		}
	}
}

func (m *refMedium) SINRNow(tx, rx int, txBeam, rxBeam phy.Beam) units.DB {
	now := m.sim.Now()
	if !m.up(tx) || !m.up(rx) {
		return -300
	}
	desired := m.w.RxPowerMw(tx, rx, txBeam, rxBeam)
	//mmv2v:exact RxPowerMw returns exactly 0 as its out-of-range/beam-miss sentinel
	if desired == 0 {
		return -300
	}
	interference := units.MilliWatt(0)
	for _, t := range m.active {
		if t.from == tx || t.from == rx || t.end <= now || !m.up(t.from) {
			continue
		}
		interference += m.w.RxPowerMw(t.from, rx, t.beam, rxBeam)
	}
	return units.RatioDB(desired, m.w.Channel().NoiseMw()+interference)
}

func (m *refMedium) counters() string {
	return fmt.Sprintf("delivered=%d lost=%d faultLost=%d muted=%d", m.Delivered, m.Lost, m.FaultLost, m.FaultMutedTx)
}

func (m *Medium) counters() string {
	return fmt.Sprintf("delivered=%d lost=%d faultLost=%d muted=%d", m.Delivered, m.Lost, m.FaultLost, m.FaultMutedTx)
}

// air is the medium surface the differential test exercises; the
// production Medium and refMedium both implement it.
type air interface {
	SetFaults(FaultModel)
	StartListen(i int, beam phy.Beam, h Handler)
	StopListen(i int)
	Transmit(from int, beam phy.Beam, dur time.Duration, payload any)
	StartStream(from int, beam phy.Beam) StreamID
	StopStream(id StreamID)
	SINRNow(tx, rx int, txBeam, rxBeam phy.Beam) units.DB
	counters() string
}

// script is one randomized medium workload: which vehicles listen and
// transmit in which slot with which beams, the streams, the SINR probes and
// what each delivery handler does. Every choice is a pure function of the
// seed and of the delivery being handled, so two media that deliver the
// same frames run the same script.
type script struct {
	w      *world.World
	seed   uint64
	slots  int
	faults *faults.Config
}

// widths are the beam widths scripts draw from: quasi-omni, the paper's
// refined, receive and transmit widths, and a wide sector.
var widths = []units.Radian{0, geom.Deg(3), geom.Deg(12), geom.Deg(30), geom.Deg(60)}

// beam draws a beam for vehicle i: aimed at a random in-range partner
// (most deliveries need alignment), at a random bearing, or quasi-omni.
func (s script) beam(rng *xrand.Source, i int) phy.Beam {
	wd := widths[rng.Intn(len(widths))]
	if wd == 0 {
		return phy.Omni
	}
	if ls := s.w.Links(i); len(ls) > 0 && rng.Bool(0.7) {
		return phy.Beam{Bearing: ls[rng.Intn(len(ls))].Bearing, Width: wd}
	}
	return phy.Beam{Bearing: geom.Bearing(rng.UniformRange(0, 2*math.Pi)), Width: wd}
}

// run drives one medium through the script and returns its event log:
// every delivery and SINR probe with float results as bit patterns, then
// the medium's counters and its control-frame SINR histogram.
func (s script) run(mk func(*des.Simulator, *obs.Registry) air) []string {
	sim := des.New()
	reg := obs.New()
	m := mk(sim, reg)
	if s.faults != nil {
		m.SetFaults(faults.NewInjector(*s.faults, s.seed, sim))
	}
	root := xrand.New(s.seed)
	n := s.w.NumVehicles()
	var log []string
	var streams []StreamID
	payload := 0
	var handler func(i int) Handler
	handler = func(i int) Handler {
		return func(d Delivery) {
			log = append(log, fmt.Sprintf("rx %d<-%d %v sinr=%#x snr=%#x at=%d",
				d.To, d.From, d.Payload, math.Float64bits(d.SINRdB.Decibels()),
				math.Float64bits(d.SNRdB.Decibels()), d.At))
			rng := root.Child("handler", uint64(d.To), uint64(d.From), uint64(d.At))
			k := rng.Intn(n)
			switch rng.Intn(12) {
			case 0:
				m.StartListen(i, s.beam(rng, i), handler(i)) // re-aim self
			case 1:
				m.StopListen(i)
			case 2:
				payload++
				m.Transmit(i, s.beam(rng, i), 10*time.Microsecond, payload) // reply
			case 3:
				if len(streams) > 0 {
					m.StopStream(streams[rng.Intn(len(streams))])
				}
			case 4:
				streams = append(streams, m.StartStream(i, s.beam(rng, i)))
			case 5:
				m.StartListen(k, s.beam(rng, k), handler(k)) // re-aim another
			case 6:
				m.StopListen(k)
			case 7:
				payload++
				m.Transmit(k, s.beam(rng, k), 15*time.Microsecond, payload)
			}
		}
	}
	const slot = 40 * time.Microsecond
	durations := []time.Duration{10 * time.Microsecond, 15 * time.Microsecond, 15 * time.Microsecond, 20 * time.Microsecond}
	offsets := []time.Duration{0, 0, 0, time.Microsecond, 5 * time.Microsecond, 12 * time.Microsecond}
	for k := 0; k < s.slots; k++ {
		at := des.At(time.Duration(k) * slot)
		sim.ScheduleAt(at, "script.slot", func() {
			rng := root.Child("slot", uint64(k))
			for i := 0; i < n; i++ {
				switch u := rng.Float64(); {
				case u < 0.4:
					m.StartListen(i, s.beam(rng, i), handler(i))
				case u < 0.75:
					b, dur, off := s.beam(rng, i), durations[rng.Intn(len(durations))], offsets[rng.Intn(len(offsets))]
					payload++
					p := payload
					sim.ScheduleAt(sim.Now().Add(off), "script.tx", func() { m.Transmit(i, b, dur, p) })
				case u < 0.8:
					m.StopListen(i)
				}
			}
			if rng.Bool(0.3) {
				i := rng.Intn(n)
				streams = append(streams, m.StartStream(i, s.beam(rng, i)))
			}
			if len(streams) > 0 && rng.Bool(0.2) {
				m.StopStream(streams[rng.Intn(len(streams))])
			}
		})
		// Probe the data-plane SINR mid-slot between aligned partners.
		sim.ScheduleAt(at.Add(slot/2), "script.probe", func() {
			rng := root.Child("probe", uint64(k))
			tx := rng.Intn(n)
			ls := s.w.Links(tx)
			if len(ls) == 0 {
				return
			}
			lnk := ls[rng.Intn(len(ls))]
			rx := lnk.J
			back, _ := s.w.Link(rx, tx)
			wd := widths[1+rng.Intn(len(widths)-1)]
			got := m.SINRNow(tx, rx, phy.Beam{Bearing: lnk.Bearing, Width: wd}, phy.Beam{Bearing: back.Bearing, Width: wd})
			log = append(log, fmt.Sprintf("sinrnow %d->%d %#x", tx, rx, math.Float64bits(got.Decibels())))
		})
	}
	sim.RunAll()
	log = append(log, m.counters())
	for _, r := range reg.Rows("") {
		if r.Name == "medium.control_sinr_db" {
			log = append(log, fmt.Sprintf("sinr histogram n=%d sum=%#x buckets=%v", r.Count, math.Float64bits(r.Sum), r.Buckets))
		}
	}
	return log
}

// roadWorld and gridWorld build the randomized worlds of the differential
// test; with a fault config the world's links carry its blockage bursts.
func roadWorld(t testing.TB, vpl float64, seed uint64, fc *faults.Config) *world.World {
	t.Helper()
	road, err := traffic.New(traffic.DefaultConfig(vpl), xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return faultedWorld(t, road, seed, fc)
}

func gridWorld(t testing.TB, vehicles int, seed uint64, fc *faults.Config) *world.World {
	t.Helper()
	g := traffic.DefaultGridConfig(vehicles)
	g.Rows, g.Cols, g.BlockM = 3, 3, 200
	nw, err := traffic.NewNetwork(g.Network(), xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return faultedWorld(t, nw, seed, fc)
}

func faultedWorld(t testing.TB, fleet traffic.Fleet, seed uint64, fc *faults.Config) *world.World {
	t.Helper()
	w, err := world.New(world.DefaultConfig(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if fc != nil {
		// Advance the blockage clock so some bursts are active.
		clock := des.New()
		clock.ScheduleAt(des.At(200*time.Millisecond), "clock", func() {})
		clock.RunAll()
		w.SetLinkFault(faults.NewInjector(*fc, seed, clock))
		w.Refresh()
	}
	return w
}

// TestDeliverGroupMatchesReference diffs the production medium against the
// brute-force reference, bit for bit, on randomized road and grid worlds:
// mixed beams including quasi-omni, overlapping and jittered windows, live
// streams, SINR probes, and delivery handlers that re-aim, stop, transmit
// and stop streams mid-delivery — each with faults off, with the default
// fault config, and with a harsh config whose radios churn within a run.
func TestDeliverGroupMatchesReference(t *testing.T) {
	def := faults.DefaultConfig()
	harsh := faults.DefaultConfig()
	harsh.ControlLossP = 0.3
	harsh.RadioMeanUpSec = 0.002
	harsh.RadioMeanDownSec = 0.0005
	harsh.SlotJitterMax = 6 * time.Microsecond
	harsh.BlockageRatePerSec = 20
	fcs := []struct {
		name string
		cfg  *faults.Config
	}{{"clean", nil}, {"default", &def}, {"harsh", &harsh}}
	slots := 40
	if testing.Short() {
		slots = 15
	}
	for _, fc := range fcs {
		for seed := uint64(1); seed <= 3; seed++ {
			worlds := []struct {
				name string
				w    *world.World
			}{
				{fmt.Sprintf("road6/seed%d", seed), roadWorld(t, 6, seed, fc.cfg)},
				{fmt.Sprintf("road15/seed%d", seed), roadWorld(t, 15, seed, fc.cfg)},
				{fmt.Sprintf("grid120/seed%d", seed), gridWorld(t, 120, seed, fc.cfg)},
			}
			for _, wc := range worlds {
				t.Run(fc.name+"/"+wc.name, func(t *testing.T) {
					s := script{w: wc.w, seed: seed, slots: slots, faults: fc.cfg}
					want := s.run(func(sim *des.Simulator, reg *obs.Registry) air { return newRefMedium(sim, wc.w, reg) })
					got := s.run(func(sim *des.Simulator, reg *obs.Registry) air {
						m := New(sim, wc.w)
						m.SetObs(reg)
						return m
					})
					diffLogs(t, got, want)
				})
			}
		}
	}
}

// diffLogs fails on the first divergence between two event logs and
// requires the script to have produced at least one delivery.
func diffLogs(t *testing.T, got, want []string) {
	t.Helper()
	for k := 0; k < len(got) && k < len(want); k++ {
		if got[k] != want[k] {
			t.Fatalf("event %d diverges:\n got  %s\n want %s", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("event logs differ in length: got %d, want %d", len(got), len(want))
	}
	for _, e := range want {
		if strings.HasPrefix(e, "rx ") {
			return
		}
	}
	t.Fatalf("script delivered no frames in %d events; the differential test needs traffic", len(want))
}
