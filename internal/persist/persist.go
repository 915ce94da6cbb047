// Package persist is the deterministic persistence substrate (DESIGN.md
// §11): a little-endian binary codec plus a checksummed, append-only record
// log for run logs.
//
// The package is deliberately stdlib-only and knows nothing about the
// simulator: the run log encodes its header, window results and trial
// tails through an Encoder and reads them back through a Decoder. The
// decoder is hostile-input safe by construction: every read is
// bounds-checked, every length prefix is validated against the bytes that
// remain, the first failure latches and all subsequent reads return zero
// values. Corrupted input yields a structured error, never a panic.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// castagnoli is the CRC-32C polynomial table used for every checksum in
// the formats below (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc32c returns the CRC-32C checksum of b.
func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Structured decode errors. Callers branch on these with errors.Is; every
// failure path in this package wraps exactly one of them.
var (
	// ErrTruncated means the input ended before a complete frame, record
	// or field.
	ErrTruncated = errors.New("persist: truncated input")
	// ErrChecksum means a CRC over a payload did not match its header.
	ErrChecksum = errors.New("persist: checksum mismatch")
	// ErrMagic means the input does not start with the expected format tag.
	ErrMagic = errors.New("persist: bad magic")
	// ErrVersion means the format version is newer than this build reads.
	ErrVersion = errors.New("persist: unsupported version")
	// ErrCorrupt means a structurally invalid value (impossible length,
	// out-of-range index, non-canonical ordering) inside a payload.
	ErrCorrupt = errors.New("persist: corrupt payload")
)

// Encoder appends fixed-width little-endian primitives to a buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// U64 appends an unsigned 64-bit value.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// U32 appends an unsigned 32-bit value.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Int appends an int as a signed 64-bit value (two's complement).
func (e *Encoder) Int(v int) { e.U64(uint64(int64(v))) }

// F64 appends a float64 bit-exactly (IEEE 754 bits; NaN payloads and
// signed zeros round-trip).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads the Encoder's wire format back with sticky-error
// semantics: the first failure latches, every later read returns the zero
// value, and Err reports the latched failure. No method panics on any
// input.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// fail latches the first error.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the next n bytes, or nil after latching ErrTruncated.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail(fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, len(d.buf)-d.off))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads an unsigned 64-bit value.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads an unsigned 32-bit value.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Int reads an int encoded by Encoder.Int.
func (d *Decoder) Int() int { return int(int64(d.U64())) }

// F64 reads a float64 bit-exactly.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a boolean; any nonzero byte is true.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Count reads a u32 element count and validates it against the bytes that
// remain, given a per-element lower bound in bytes. This clamps attacker-
// controlled counts so loaders can allocate count-sized slices without an
// out-of-memory hazard: a count that could not possibly be satisfied by
// the remaining input latches ErrCorrupt and returns 0.
func (d *Decoder) Count(minElemBytes int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > (len(d.buf)-d.off)/minElemBytes {
		d.fail(fmt.Errorf("%w: count %d exceeds remaining input", ErrCorrupt, n))
		return 0
	}
	return n
}

// Record log: magic, format version, then a sequence of records, each
// [type u8][len u32][crc u32][payload]. Logs are built in memory and
// written whole with WriteFileAtomic, so a well-formed log never ends
// mid-record: ReadLog reports a short tail as ErrTruncated.
const (
	logMagic   = "MMV2VLOG"
	LogVersion = 1
	logHdrLen  = 8 + 4
	recHdrLen  = 1 + 4 + 4
)

// Record is one entry of a record log.
type Record struct {
	Type    uint8
	Payload []byte
}

// NewLog returns the log file header that records are appended to.
func NewLog() []byte {
	var e Encoder
	e.buf = append(e.buf, logMagic...)
	e.U32(LogVersion)
	return e.buf
}

// AppendRecord appends one checksummed record to a log buffer.
func AppendRecord(log []byte, typ uint8, payload []byte) []byte {
	var e Encoder
	e.buf = log
	e.U8(typ)
	e.U32(uint32(len(payload)))
	e.U32(crc32c(payload))
	e.buf = append(e.buf, payload...)
	return e.buf
}

// ReadLog parses a record log and returns its records in order. A tail
// too short for the record it starts fails with ErrTruncated, and a
// checksum mismatch with ErrChecksum; either way the records before the
// failure are returned alongside the error.
func ReadLog(b []byte) ([]Record, error) {
	if len(b) < logHdrLen {
		return nil, fmt.Errorf("%w: %d-byte input shorter than log header", ErrTruncated, len(b))
	}
	if string(b[:8]) != logMagic {
		return nil, fmt.Errorf("%w: want %q", ErrMagic, logMagic)
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != LogVersion {
		return nil, fmt.Errorf("%w: log version %d (this build reads %d)", ErrVersion, v, LogVersion)
	}
	var recs []Record
	for off := logHdrLen; off < len(b); {
		if len(b)-off < recHdrLen {
			return recs, fmt.Errorf("%w: record %d header needs %d bytes, have %d", ErrTruncated, len(recs), recHdrLen, len(b)-off)
		}
		typ := b[off]
		n := int(binary.LittleEndian.Uint32(b[off+1 : off+5]))
		want := binary.LittleEndian.Uint32(b[off+5 : off+9])
		if n > len(b)-off-recHdrLen {
			return recs, fmt.Errorf("%w: record %d payload needs %d bytes, have %d", ErrTruncated, len(recs), n, len(b)-off-recHdrLen)
		}
		payload := b[off+recHdrLen : off+recHdrLen+n]
		if got := crc32c(payload); got != want {
			return recs, fmt.Errorf("%w: record %d (type %d) CRC %08x, header says %08x",
				ErrChecksum, len(recs), typ, got, want)
		}
		recs = append(recs, Record{Type: typ, Payload: payload})
		off += recHdrLen + n
	}
	return recs, nil
}

// WriteFileAtomic writes data to path via a same-directory temp file and
// rename, so readers never observe a half-written file and a crash
// mid-write leaves the previous file intact.
func WriteFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		// Best-effort cleanup of the temp file; the write error is the
		// failure being reported.
		_ = os.Remove(tmp.Name())
		return werr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}
