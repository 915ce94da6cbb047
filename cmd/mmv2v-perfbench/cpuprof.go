package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU attribution: runtime/pprof writes a gzipped profile.proto; this file
// decodes just the parts needed (samples, locations, functions, strings,
// labels) with the standard library, and folds every sample onto the layer
// whose entry point is the innermost one on its stack.

// cpuLayers are the buckets the fold reports, in output order.
var cpuLayers = []string{"medium", "world", "traffic", "protocol", "des", "gc", "other"}

// entryRules map function names to layers. A frame matches a rule when its
// name starts with the prefix. Walking a stack from the leaf, the first
// matching frame decides the sample's layer, so time spent in world code
// called from medium resolution counts as medium.
var entryRules = []struct{ prefix, layer string }{
	{"runtime.gc", "gc"},
	{"runtime.bgsweep", "gc"},
	{"runtime.bgscavenge", "gc"},
	{"runtime.sweepone", "gc"},
	{"runtime.markroot", "gc"},
	{"mmv2v/internal/medium.(*Medium).resolve", "medium"},
	{"mmv2v/internal/medium.(*Medium).SINRNow", "medium"},
	{"mmv2v/internal/world.(*World).Refresh", "world"},
	{"mmv2v/internal/world.New", "world"},
	{"mmv2v/internal/traffic.(*Road).Step", "traffic"},
	{"mmv2v/internal/traffic.(*Network).Step", "traffic"},
	{"mmv2v/internal/traffic.New", "traffic"},
	{"mmv2v/internal/core.", "protocol"},
	{"mmv2v/internal/baseline.", "protocol"},
	{"mmv2v/internal/udt.", "protocol"},
	{"mmv2v/internal/des.(*Simulator).Run", "des"},
}

// labelLayers attribute samples with no entry frame on their stack by the
// pprof label the traced replay set around the call.
var labelLayers = map[string]string{
	"traffic.warmup": "traffic",
	"traffic.step":   "traffic",
	"world.new":      "world",
	"world.refresh":  "world",
	"sim.hooks":      "protocol",
	"proto.frame":    "protocol",
	"des.run":        "des",
}

// stackSample is one decoded profile sample: its frames from leaf to root
// (inlined frames expanded), its "layer" label, and its sample count.
type stackSample struct {
	frames []string
	label  string
	count  int64
}

// classify returns the layer of one sample.
func classify(s stackSample) string {
	for _, fn := range s.frames {
		for _, r := range entryRules {
			if strings.HasPrefix(fn, r.prefix) {
				return r.layer
			}
		}
	}
	if l, ok := labelLayers[s.label]; ok {
		return l
	}
	return "other"
}

// foldShares returns each cpuLayers entry's share of all sample counts, and
// the total count.
func foldShares(samples []stackSample) (map[string]float64, int64) {
	counts := make(map[string]int64, len(cpuLayers))
	var total int64
	for _, s := range samples {
		counts[classify(s)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = ratio(float64(counts[l]), float64(total))
	}
	return shares, total
}

// pbuf is a minimal protobuf wire-format reader.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("varint overflow")
	return 0
}

// field reads the next key and returns its field number, wire type and, for
// length-delimited fields, the payload (varints come back in val).
func (p *pbuf) field() (num int, wire int, val uint64, payload []byte) {
	key := p.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val = p.varint()
	case 1:
		if len(p.b) < 8 {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[8:]
	case 2:
		n := p.varint()
		if uint64(len(p.b)) < n {
			p.err = io.ErrUnexpectedEOF
			return
		}
		payload, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[4:]
	default:
		p.err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return
}

// uints appends a repeated integer field occurrence, packed or not.
func uints(dst []uint64, wire int, val uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	q := pbuf{b: payload}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst, q.err
}

type rawSample struct {
	locs   []uint64
	values []uint64
	labels [][2]uint64 // (key, str) string-table indices
}

// parseProfile decodes a gzipped CPU profile into stack samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		samples []rawSample
		strs    []string
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]uint64{}   // function id -> name string index
	)
	p := pbuf{b: data}
	for len(p.b) > 0 && p.err == nil {
		num, wire, _, payload := p.field()
		if p.err != nil {
			break
		}
		switch {
		case num == 2 && wire == 2:
			s, err := parseSample(payload)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case num == 4 && wire == 2:
			id, fns, err := parseLocation(payload)
			if err != nil {
				return nil, err
			}
			locs[id] = fns
		case num == 5 && wire == 2:
			id, name, err := parseFunction(payload)
			if err != nil {
				return nil, err
			}
			funcs[id] = name
		case num == 6 && wire == 2:
			strs = append(strs, string(payload))
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, rs := range samples {
		s := stackSample{}
		if len(rs.values) > 0 {
			s.count = int64(rs.values[0])
		}
		for _, l := range rs.locs {
			for _, fid := range locs[l] {
				s.frames = append(s.frames, str(funcs[fid]))
			}
		}
		for _, kv := range rs.labels {
			if str(kv[0]) == "layer" {
				s.label = str(kv[1])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

func parseSample(b []byte) (rawSample, error) {
	var s rawSample
	p := pbuf{b: b}
	for len(p.b) > 0 && p.err == nil {
		num, wire, val, payload := p.field()
		if p.err != nil {
			break
		}
		var err error
		switch num {
		case 1:
			s.locs, err = uints(s.locs, wire, val, payload)
		case 2:
			s.values, err = uints(s.values, wire, val, payload)
		case 3:
			var kv [2]uint64
			q := pbuf{b: payload}
			for len(q.b) > 0 && q.err == nil {
				n, _, v, _ := q.field()
				if n == 1 || n == 2 {
					kv[n-1] = v
				}
			}
			err = q.err
			s.labels = append(s.labels, kv)
		}
		if err != nil {
			return s, err
		}
	}
	return s, p.err
}

// parseLocation returns a location's id and the function ids of its lines.
// A location with inlined calls lists the inlined callee first and the
// function it was inlined into last, so the order is already leaf first.
func parseLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	p := pbuf{b: b}
	for len(p.b) > 0 && p.err == nil {
		num, _, val, payload := p.field()
		switch num {
		case 1:
			id = val
		case 4:
			q := pbuf{b: payload}
			for len(q.b) > 0 && q.err == nil {
				if n, _, v, _ := q.field(); n == 1 {
					fns = append(fns, v)
				}
			}
			if q.err != nil {
				return 0, nil, q.err
			}
		}
	}
	return id, fns, p.err
}

// parseFunction returns a function's id and its name's string index.
func parseFunction(b []byte) (uint64, uint64, error) {
	var id, name uint64
	p := pbuf{b: b}
	for len(p.b) > 0 && p.err == nil {
		num, _, val, _ := p.field()
		switch num {
		case 1:
			id = val
		case 2:
			name = val
		}
	}
	return id, name, p.err
}
