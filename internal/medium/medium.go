// Package medium arbitrates the shared 60 GHz wireless channel. Control
// frames (SSW, negotiation, beacons) are short timed transmissions whose
// reception is decided by Eq. 3 SINR at each listening vehicle — so
// collisions, deafness (receiver aimed elsewhere), capture and side-lobe
// interference all emerge from geometry rather than being assumed.
//
// Two planes share the medium:
//
//   - Control frames via Transmit + StartListen: reception resolves at the
//     frame's end against all transmissions that overlapped it in time.
//   - Data streams via StartStream/StopStream: long-lived directional
//     transmissions (the UDT phase) that both generate interference for
//     control frames and are rate-adapted by querying SINRNow each link
//     refresh.
//
// The co-channel deployment, uniform transmit power and half-duplex
// constraints of the paper's system model are enforced here.
package medium

import (
	"fmt"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/obs"
	"mmv2v/internal/phy"
	"mmv2v/internal/units"
	"mmv2v/internal/world"
)

// Delivery reports a successfully decoded control frame.
type Delivery struct {
	From    int
	To      int
	Payload any
	// SINRdB is the signal-to-interference-plus-noise ratio the frame was
	// decoded at (Eq. 3).
	SINRdB units.DB
	// SNRdB is the interference-free link quality (RSSI over noise) — what
	// a receiver's range/admission filter sees.
	SNRdB units.DB
	At    des.Time
}

// Handler consumes decoded control frames at a listening vehicle.
type Handler func(d Delivery)

// StreamID identifies a data-plane stream.
type StreamID int64

// transmission is one on-air signal, either a control frame (finite End,
// resolved on completion) or a data stream (End = Infinity until stopped).
// Records of retired control frames are recycled through Medium.free.
type transmission struct {
	id   int64
	from int
	// aim is the transmit beam with its pattern resolved once, at Transmit
	// or StartStream.
	aim     world.Aim
	start   des.Time
	end     des.Time
	payload any
	stream  bool
	// resolved marks a delivered control frame kept around only so that
	// later partially-overlapping frames still see its interference.
	resolved bool
}

// listener is a vehicle's receive state.
type listener struct {
	// aim is the receive beam with its pattern resolved once per
	// StartListen.
	aim     world.Aim
	since   des.Time
	handler Handler
	active  bool
}

// heard is one frame of the group being resolved as it arrives at a
// listener: the frame's record and its received power there, the Eq. 3
// numerator. The power is carried beside the record pointer, never at an
// index into Medium.active, which handlers may append to or shift.
type heard struct {
	tx *transmission
	mw units.MilliWatt
}

// FaultModel is the medium's fault-injection hook (see internal/faults).
// When installed, the medium consults it on every transmission and
// delivery; protocols never see it, so any scheme running on this medium is
// stressed without code changes. A nil model is the clean channel.
type FaultModel interface {
	// RadioUp reports whether vehicle i's radio is alive at time `at`. A
	// down radio neither transmits, receives nor interferes.
	RadioUp(i int, at des.Time) bool
	// DropControl reports whether the control frame from → to resolving at
	// time `at` is lost despite a decodable SINR.
	DropControl(from, to int, at des.Time) bool
	// TxDelay returns the slot-timing jitter added to a control
	// transmission by vehicle `from` at time `at`.
	TxDelay(from int, at des.Time) time.Duration
}

// Medium is the shared channel. Create with New; not safe for concurrent
// use (the DES is single-threaded).
type Medium struct {
	sim *des.Simulator
	w   *world.World

	// active holds the in-flight transmissions and listeners the current
	// frame's listener registrations.
	active    []*transmission
	listeners []listener
	// nextID starts at 1 so the zero StreamID is never a live stream.
	nextID int64
	// resolveAt de-duplicates end-of-frame resolution events; resolveFn is
	// the resolve method value, bound once so scheduling allocates only
	// the event.
	resolveAt map[des.Time]bool
	resolveFn func()

	// free holds retired control-frame records for reuse. A record enters
	// it only in resolve's retire sweep, after the group that ended it has
	// been delivered and once it has left active, so no live reference —
	// active, group, heard — ever points at a free record.
	free []*transmission
	// group is resolve's reused scratch of the frames ending now.
	group []*transmission
	// Per-listener interference-kernel scratch, indexed by vehicle and
	// rebuilt by accumulate for each group: hear marks listeners that can
	// decode something in the group window, total is the incident power
	// from every overlapping signal, and busy marks vehicles transmitting
	// in the window (half-duplex). heard holds the group frames arriving at
	// each listener, listener by listener and in group order within one:
	// listener j's run ends at heardEnd[j] and starts where j-1's ends.
	hear     []bool
	total    []units.MilliWatt
	busy     []bool
	heard    []heard
	heardEnd []int32
	// removals counts removals from active (StopStream, Reset), so a
	// group delivery notices a handler that took a signal off the air and
	// re-accumulates for the listeners still to come.
	removals uint64

	// faults, when non-nil, injects radio churn, control-frame loss and
	// slot jitter into every transmission and delivery.
	faults FaultModel

	// Delivered counts decoded control frames (diagnostics).
	Delivered uint64
	// Lost counts control frames that at least one aligned listener failed
	// to decode due to SINR (diagnostics; deaf listeners don't count).
	Lost uint64
	// FaultLost counts decodable control frames killed by the fault model's
	// loss process, and FaultMutedTx counts transmissions suppressed because
	// the transmitter's radio was down (diagnostics).
	FaultLost    uint64
	FaultMutedTx uint64

	// Statistics handles (nil-safe no-ops until SetObs installs a live
	// registry).
	obsControlTx     *obs.Counter
	obsControlDeliv  *obs.Counter
	obsControlLost   *obs.Counter
	obsControlFault  *obs.Counter
	obsFaultMuted    *obs.Counter
	obsRxAims        *obs.Counter
	obsStreamStarts  *obs.Counter
	obsControlSINRdB *obs.Histogram
}

// SetFaults installs a fault model; nil restores the clean channel.
func (m *Medium) SetFaults(f FaultModel) { m.faults = f }

// SetObs installs the statistics registry. A nil registry (the default)
// hands out nil handles, so every instrumented path stays a no-op.
func (m *Medium) SetObs(r *obs.Registry) {
	m.obsControlTx = r.Counter("medium.control_tx")
	m.obsControlDeliv = r.Counter("medium.control_delivered")
	m.obsControlLost = r.Counter("medium.control_lost_sinr")
	m.obsControlFault = r.Counter("medium.control_fault_lost")
	m.obsFaultMuted = r.Counter("medium.fault_muted_tx")
	m.obsRxAims = r.Counter("medium.rx_beam_aims")
	m.obsStreamStarts = r.Counter("medium.stream_starts")
	m.obsControlSINRdB = r.Histogram("medium.control_sinr_db", obs.LinearBuckets(-10, 5, 9))
}

// New builds a Medium over a world and simulator.
func New(sim *des.Simulator, w *world.World) *Medium {
	n := w.NumVehicles()
	m := &Medium{
		sim:       sim,
		w:         w,
		nextID:    1,
		listeners: make([]listener, n),
		resolveAt: make(map[des.Time]bool),
		hear:      make([]bool, n),
		total:     make([]units.MilliWatt, n),
		busy:      make([]bool, n),
		heardEnd:  make([]int32, n),
	}
	m.resolveFn = m.resolve
	return m
}

// StartListen aims vehicle i's receive beam and registers a handler for
// decodable frames. Re-aiming mid-frame makes the earlier frame undecodable
// for i (the receiver moved away). A nil handler panics.
func (m *Medium) StartListen(i int, beam phy.Beam, h Handler) {
	if h == nil {
		panic(fmt.Sprintf("medium: nil handler for listener %d", i))
	}
	m.listeners[i] = listener{aim: m.w.Aim(beam), since: m.sim.Now(), handler: h, active: true}
	m.obsRxAims.Inc()
}

// StopListen clears vehicle i's receive state.
func (m *Medium) StopListen(i int) {
	m.listeners[i].active = false
	m.listeners[i].handler = nil
}

// Listening reports whether vehicle i currently has an active receiver.
func (m *Medium) Listening(i int) bool { return m.listeners[i].active }

// Transmit puts a control frame on the air from vehicle `from` for the given
// duration. Reception resolves when the frame ends. Under a fault model the
// frame may start late (slot jitter) or not at all (radio down).
func (m *Medium) Transmit(from int, beam phy.Beam, dur time.Duration, payload any) {
	if dur <= 0 {
		panic(fmt.Sprintf("medium: non-positive frame duration %v", dur))
	}
	now := m.sim.Now()
	start := now
	if m.faults != nil {
		if !m.faults.RadioUp(from, now) {
			m.FaultMutedTx++
			m.obsFaultMuted.Inc()
			return
		}
		start = now.Add(m.faults.TxDelay(from, now))
	}
	var tx *transmission
	if k := len(m.free) - 1; k >= 0 {
		tx = m.free[k]
		m.free = m.free[:k]
	} else {
		tx = new(transmission)
	}
	*tx = transmission{
		id:      m.nextID,
		from:    from,
		aim:     m.w.Aim(beam),
		start:   start,
		end:     start.Add(dur),
		payload: payload,
	}
	m.nextID++
	m.active = append(m.active, tx)
	m.obsControlTx.Inc()
	if !m.resolveAt[tx.end] {
		m.resolveAt[tx.end] = true
		m.sim.ScheduleAt(tx.end, "medium.resolve", m.resolveFn)
	}
}

// StartStream opens a persistent directional data transmission (UDT). The
// stream interferes with control frames and other streams until stopped.
func (m *Medium) StartStream(from int, beam phy.Beam) StreamID {
	now := m.sim.Now()
	tx := &transmission{
		id:     m.nextID,
		from:   from,
		aim:    m.w.Aim(beam),
		start:  now,
		end:    des.Infinity,
		stream: true,
	}
	m.nextID++
	m.active = append(m.active, tx)
	m.obsStreamStarts.Inc()
	return StreamID(tx.id)
}

// StopStream removes a data stream. Stopping an unknown id is a no-op.
func (m *Medium) StopStream(id StreamID) {
	for k, tx := range m.active {
		if tx.id == int64(id) && tx.stream {
			m.active = append(m.active[:k], m.active[k+1:]...)
			m.removals++
			return
		}
	}
}

// ActiveTransmissions returns the number of signals currently on the air.
func (m *Medium) ActiveTransmissions() int { return len(m.active) }

// overlaps reports whether two [start, end) intervals intersect.
func overlaps(aStart, aEnd, bStart, bEnd des.Time) bool {
	return aStart < bEnd && bStart < aEnd
}

// retireGrace is how long an ended control frame stays in the active list
// after delivery: frames that started before it ended (possible under clock
// jitter) must still count its interference at their own resolution.
const retireGrace = 100 * time.Microsecond

// resolve delivers every control frame ending now, then retires frames old
// enough that nothing still on the air overlapped them.
func (m *Medium) resolve() {
	now := m.sim.Now()
	delete(m.resolveAt, now)
	m.group = m.group[:0]
	for _, tx := range m.active {
		if tx.end == now && !tx.stream && !tx.resolved {
			tx.resolved = true
			m.group = append(m.group, tx)
		}
	}
	if len(m.group) > 0 {
		m.deliverGroup(m.group)
	}
	kept := m.active[:0]
	cutoff := now.Add(-retireGrace)
	for _, tx := range m.active {
		if tx.end > now || (tx.resolved && tx.end > cutoff) {
			kept = append(kept, tx)
		} else {
			tx.payload = nil
			m.free = append(m.free, tx)
		}
	}
	m.active = kept
}

// deliverGroup resolves reception of a batch of frames sharing an end time.
// accumulate computes every listener's incident power and per-frame
// received powers in one pass over the transmissions; each frame's SINR
// then counts every other overlapping signal as interference (Eq. 3).
// Listeners are served in vehicle order and each listener's frames in
// group order, so handlers run in the same order as a literal per-listener
// evaluation.
//
//mmv2v:hotpath the per-frame Eq. 3 resolution of every control frame; pinned by BenchmarkDeliverGroup15vpl
func (m *Medium) deliverGroup(group []*transmission) {
	noise := m.w.Channel().NoiseMw()
	now := m.sim.Now()
	groupStart, latestStart := group[0].start, group[0].start
	for _, g := range group {
		if g.start < groupStart {
			groupStart = g.start
		}
		if g.start > latestStart {
			latestStart = g.start
		}
	}
	removals := m.removals
	m.accumulate(groupStart, latestStart, now)
	for j := range m.listeners {
		l := &m.listeners[j]
		if !l.active {
			continue
		}
		// A listener whose radio is down hears nothing (and, not being
		// aligned in any meaningful sense, does not count toward Lost).
		if m.faults != nil && !m.faults.RadioUp(j, now) {
			continue
		}
		if m.removals != removals {
			// An earlier handler stopped a stream: the listeners still
			// to come see the medium without it.
			removals = m.removals
			m.accumulate(groupStart, latestStart, now)
		}
		// Half-duplex: a vehicle transmitting in the window cannot hear.
		if m.busy[j] {
			continue
		}
		total := m.total[j]
		for _, h := range m.heardBy(j) {
			g := h.tx
			// The listener must have been aimed for the whole frame.
			if l.since > g.start {
				continue
			}
			desired := h.mw
			//mmv2v:exact a received power is exactly 0 only as the out-of-range/beam-miss sentinel
			if desired == 0 {
				continue
			}
			sinr := units.RatioDB(desired, noise+(total-desired))
			m.obsControlSINRdB.Observe(sinr.Decibels())
			if phy.ControlDecodable(sinr) {
				if m.faults != nil && m.faults.DropControl(g.from, j, now) {
					m.FaultLost++
					m.obsControlFault.Inc()
					continue
				}
				m.Delivered++
				m.obsControlDeliv.Inc()
				// Handler may re-aim or stop the listener; re-check.
				h := l.handler
				h(Delivery{
					From:    g.from,
					To:      j,
					Payload: g.payload,
					SINRdB:  sinr,
					SNRdB:   units.RatioDB(desired, noise),
					At:      now,
				})
				if !l.active {
					break
				}
			} else if sinr > -10 {
				// Near-miss: an aligned listener lost a decodable-class
				// frame to interference or blockage.
				m.Lost++
				m.obsControlLost.Inc()
			}
		}
	}
}

// accumulate rebuilds the per-listener kernel scratch for a group window
// [groupStart, now). It walks the overlapping transmissions in active order
// and, for each, only the listeners within interference range of its
// sender (its link slice), so every listener's total adds the same nonzero
// terms in the same order as a per-listener scan of active — out-of-range
// pairs contribute an exact 0, whose addition is the identity on a
// non-negative sum — and each (transmission, listener) power is computed
// once. The group frames' powers are kept per listener for the SINR
// numerators. Listeners that cannot decode anything (inactive, radio down,
// aimed after the latest frame started, or busy transmitting) get no terms.
// The fault model's radio states are queried for the same vehicles at the
// same time as a per-listener scan would query them.
func (m *Medium) accumulate(groupStart, latestStart, now des.Time) {
	clear(m.busy)
	for _, tx := range m.active {
		if overlaps(tx.start, tx.end, groupStart, now) {
			m.busy[tx.from] = true
		}
	}
	anyUp := false
	for j := range m.listeners {
		l := &m.listeners[j]
		m.total[j] = 0
		m.heardEnd[j] = 0
		up := l.active && (m.faults == nil || m.faults.RadioUp(j, now))
		anyUp = anyUp || up
		m.hear[j] = up && l.since <= latestStart && !m.busy[j]
	}
	m.heard = m.heard[:0]
	if !anyUp {
		return
	}
	// Lay out heard: count each listener's group frames, then turn the
	// counts into run starts. The power pass below advances heardEnd[j]
	// from j's start to its end as it fills the run.
	for _, tx := range m.active {
		if !m.radiating(tx, groupStart, now) || !tx.inGroup(now) {
			continue
		}
		for _, lnk := range m.w.Links(tx.from) {
			if m.hear[lnk.J] {
				m.heardEnd[lnk.J]++
			}
		}
	}
	runs := int32(0)
	for j, c := range m.heardEnd {
		m.heardEnd[j] = runs
		runs += c
	}
	if cap(m.heard) < int(runs) {
		//mmv2v:alloc amortized: the heard runs grow to the largest group's in-range pairs and are reused across groups
		m.heard = make([]heard, runs)
	}
	m.heard = m.heard[:runs]
	for _, tx := range m.active {
		if !m.radiating(tx, groupStart, now) {
			continue
		}
		member := tx.inGroup(now)
		for _, lnk := range m.w.Links(tx.from) {
			j := lnk.J
			if !m.hear[j] {
				continue
			}
			back, _ := m.w.Link(j, tx.from)
			p := m.w.LinkRxPowerMw(lnk, back.Bearing, tx.aim, m.listeners[j].aim)
			m.total[j] += p
			if member {
				m.heard[m.heardEnd[j]] = heard{tx: tx, mw: p}
				m.heardEnd[j]++
			}
		}
	}
}

// radiating reports whether tx puts power into the group window
// [groupStart, now): it overlaps the window and, under a fault model, its
// sender's radio is up (a transmitter whose radio died mid-frame radiates
// nothing).
func (m *Medium) radiating(tx *transmission, groupStart, now des.Time) bool {
	return overlaps(tx.start, tx.end, groupStart, now) &&
		(m.faults == nil || m.faults.RadioUp(tx.from, now))
}

// inGroup reports whether tx is one of the frames being resolved at now:
// the group is exactly the control frames ending now, since a frame started
// by a handler during delivery ends strictly later.
func (tx *transmission) inGroup(now des.Time) bool {
	return tx.end == now && !tx.stream
}

// heardBy returns the group frames arriving at listener j, in group order.
func (m *Medium) heardBy(j int) []heard {
	start := int32(0)
	if j > 0 {
		start = m.heardEnd[j-1]
	}
	return m.heard[start:m.heardEnd[j]]
}

// SINRNow returns the instantaneous data-plane SINR from tx to rx with the
// given beams. All active signals except those transmitted by tx or rx
// count as interference (rx cannot receive while transmitting — callers
// handle TDD — and tx's own stream is the desired signal).
//
//mmv2v:hotpath the per-refresh SINR accumulation the UDT rate adapter queries
func (m *Medium) SINRNow(tx, rx int, txBeam, rxBeam phy.Beam) units.DB {
	now := m.sim.Now()
	if m.faults != nil && (!m.faults.RadioUp(tx, now) || !m.faults.RadioUp(rx, now)) {
		return -300
	}
	desired := m.w.RxPowerMw(tx, rx, txBeam, rxBeam)
	//mmv2v:exact RxPowerMw returns exactly 0 as its out-of-range/beam-miss sentinel
	if desired == 0 {
		return -300
	}
	rxAim := m.w.Aim(rxBeam)
	interference := units.MilliWatt(0)
	for _, t := range m.active {
		if t.from == tx || t.from == rx {
			continue
		}
		if t.end <= now {
			continue // retired frame lingering in its grace window
		}
		if m.faults != nil && !m.faults.RadioUp(t.from, now) {
			continue
		}
		// Out-of-range interferers contribute an exact 0; skip them.
		in, ok := m.w.Link(t.from, rx)
		if !ok {
			continue
		}
		out, _ := m.w.Link(rx, t.from)
		interference += m.w.LinkRxPowerMw(in, out.Bearing, t.aim, rxAim)
	}
	return units.RatioDB(desired, m.w.Channel().NoiseMw()+interference)
}

// Reset clears all transmissions and listeners (used between frames or
// trials sharing a medium).
func (m *Medium) Reset() {
	m.active = m.active[:0]
	m.removals++
	for i := range m.listeners {
		m.listeners[i] = listener{}
	}
	// Pending resolve events will find empty groups and are harmless.
}
