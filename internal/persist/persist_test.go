package persist

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.U64(math.MaxUint64)
	e.U32(0xdeadbeef)
	e.U8(7)
	e.Int(-42)
	e.Int(math.MinInt64)
	e.F64(math.Copysign(0, -1))
	e.F64(math.Inf(1))
	e.Bool(true)
	e.Bool(false)
	e.String("mmV2V")
	e.String("")

	d := NewDecoder(e.Bytes())
	if got := d.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %x", got)
	}
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := d.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := d.Int(); got != math.MinInt64 {
		t.Errorf("Int min = %d", got)
	}
	if got := d.F64(); !math.Signbit(got) || got != 0 {
		t.Errorf("F64 negative zero = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, 1) {
		t.Errorf("F64 +inf = %v", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.String(); got != "mmV2V" {
		t.Errorf("String = %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if d.Err() != nil {
		t.Fatalf("Err = %v", d.Err())
	}
	// The whole input was consumed: one more byte is past the end.
	if d.U8(); !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("read past the end: Err = %v, want ErrTruncated", d.Err())
	}
}

func TestDecoderStickyError(t *testing.T) {
	var e Encoder
	e.U32(5)
	d := NewDecoder(e.Bytes())
	if got := d.U64(); got != 0 {
		t.Errorf("truncated U64 = %d", got)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", d.Err())
	}
	// Every later read returns zero values without disturbing the error.
	if d.U32() != 0 || d.String() != "" || d.Bool() || d.F64() != 0 {
		t.Error("reads after a latched error must return zero values")
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("latched error was overwritten: %v", d.Err())
	}
}

func TestDecoderCountClamp(t *testing.T) {
	var e Encoder
	e.U32(1 << 30) // a count no remaining input could satisfy
	d := NewDecoder(e.Bytes())
	if got := d.Count(8); got != 0 {
		t.Errorf("Count = %d, want 0", got)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("Err = %v, want ErrCorrupt", d.Err())
	}
}

func TestLogRoundTrip(t *testing.T) {
	log := NewLog()
	log = AppendRecord(log, 1, []byte("header"))
	log = AppendRecord(log, 2, []byte("window 0"))
	log = AppendRecord(log, 2, nil)
	recs, err := ReadLog(log)
	if err != nil {
		t.Fatalf("ReadLog: recs=%d err=%v", len(recs), err)
	}
	if len(recs) != 3 || recs[0].Type != 1 || string(recs[1].Payload) != "window 0" || len(recs[2].Payload) != 0 {
		t.Errorf("records = %+v", recs)
	}
}

// TestLogTruncatedTailFails pins that a log cut inside a record is an
// error, not a shorter log: logs are written whole, so a short tail means
// the file was damaged after it was written.
func TestLogTruncatedTailFails(t *testing.T) {
	log := NewLog()
	log = AppendRecord(log, 1, []byte("first"))
	full := AppendRecord(append([]byte(nil), log...), 2, []byte("cut short"))
	for cut := len(log) + 1; cut < len(full); cut++ {
		recs, err := ReadLog(full[:cut])
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
		}
		if len(recs) != 1 || string(recs[0].Payload) != "first" {
			t.Fatalf("cut %d: records before the cut = %+v", cut, recs)
		}
	}
}

func TestLogInteriorCorruption(t *testing.T) {
	log := NewLog()
	log = AppendRecord(log, 1, []byte("first"))
	mark := len(log)
	log = AppendRecord(log, 2, []byte("second"))
	log[mark+recHdrLen] ^= 0x40 // flip a payload bit of the complete second record
	recs, err := ReadLog(log)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "first" {
		t.Errorf("records before corruption = %+v", recs)
	}
}

func TestLogRejectsBadHeader(t *testing.T) {
	if _, err := ReadLog([]byte("short")); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	if _, err := ReadLog([]byte("WRONGMAG\x01\x00\x00\x00")); !errors.Is(err, ErrMagic) {
		t.Errorf("magic: %v", err)
	}
	bad := NewLog()
	bad[8] = 99
	if _, err := ReadLog(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("version: %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.log")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("read back %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temp files left behind: %v", ents)
	}
}

// FuzzDecodeLog drives arbitrary bytes through the record-log reader:
// nothing may panic, and any input it accepts must be exactly the log its
// records re-encode to, so a short tail or a flipped bit can never read as
// a clean log.
func FuzzDecodeLog(f *testing.F) {
	log := NewLog()
	log = AppendRecord(log, 1, []byte("header"))
	log = AppendRecord(log, 2, make([]byte, 32))
	log = AppendRecord(log, 3, nil)
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add([]byte("MMV2VLOG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := ReadLog(b)
		if err != nil {
			return
		}
		log := NewLog()
		for _, r := range recs {
			log = AppendRecord(log, r.Type, r.Payload)
		}
		if !bytes.Equal(log, b) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(b), len(log))
		}
	})
}
