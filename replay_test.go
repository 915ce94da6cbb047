// End-to-end tests of replay and recovery by re-execution (DESIGN.md §11):
// a crashed trial re-executed from its seed and a logged run re-executed by
// replay -verify must both reproduce the uninterrupted run byte for byte,
// for any worker count, and every run-log decode path must turn corrupted
// input into structured errors, never panics.
package mmv2v_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mmv2v"
	"mmv2v/internal/obs"
	"mmv2v/internal/persist"
	"mmv2v/internal/sim"
	"mmv2v/internal/xrand"
)

// replayScenario is the small scenario these tests run: several windows so
// runs have window boundaries to log and crash past, short windows so the
// suite stays fast.
func replayScenario(seed uint64) mmv2v.ScenarioConfig {
	cfg := mmv2v.DefaultScenario(10, seed)
	cfg.WindowSec = 0.2
	cfg.Windows = 3
	return cfg
}

// comparableResult strips a Result to the deterministic fields the
// byte-identity contract covers (Obs holds pointers and Failures describe
// the execution, not the outcome).
type comparableResult struct {
	Protocol      string
	Windows       []mmv2v.WindowResult
	Stats         []mmv2v.VehicleStats
	Summary       mmv2v.Summary
	AvgNeighbors  float64
	LatencySumSec float64
	LatencyPairs  int
	Events        uint64
	Trials        int
}

func stripResult(r *mmv2v.Result) comparableResult {
	return comparableResult{
		Protocol:      r.Protocol,
		Windows:       r.Windows,
		Stats:         r.Stats,
		Summary:       r.Summary,
		AvgNeighbors:  r.AvgNeighbors,
		LatencySumSec: r.LatencySumSec,
		LatencyPairs:  r.LatencyPairs,
		Events:        r.Events,
		Trials:        r.Trials,
	}
}

func requireSameResult(t *testing.T, label string, want, got *mmv2v.Result) {
	t.Helper()
	if !reflect.DeepEqual(stripResult(want), stripResult(got)) {
		t.Fatalf("%s: results differ\nwant: %+v\ngot:  %+v", label, stripResult(want), stripResult(got))
	}
}

// seriesExport renders a result's pooled series canonically, for byte
// comparison.
func seriesExport(t *testing.T, res *mmv2v.Result) []byte {
	t.Helper()
	if res.Series == nil {
		t.Fatal("series run returned nil Series")
	}
	var buf bytes.Buffer
	if err := obs.WriteSeriesJSONL(&buf, obs.SeriesRows(res.Series.Points(), "run")); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// crashAt wraps a factory so the trial whose derived seed is target panics
// at a seed-hashed frame past its first window. The crash lands mid-run,
// after the trial has mutated its whole environment, so any state it
// leaked into the other trials would show in the pooled tables.
func crashAt(f mmv2v.Factory, target uint64, framesPerWindow, windows int) mmv2v.Factory {
	return func(env *sim.Env) sim.Protocol {
		inner := f(env)
		if env.Seed != target {
			return inner
		}
		return &crashingProto{
			Protocol:   inner,
			crashFrame: framesPerWindow + int(env.Seed%uint64(framesPerWindow*(windows-1))),
		}
	}
}

// crashingProto delegates to a real protocol and panics at crashFrame.
type crashingProto struct {
	sim.Protocol
	crashFrame int
}

func (p *crashingProto) RunFrame(frame int) {
	if frame == p.crashFrame {
		panic(fmt.Sprintf("torture: injected crash at frame %d", frame))
	}
	p.Protocol.RunFrame(frame)
}

// windowBytes is a result's windows in the canonical run-log encoding.
func windowBytes(r *mmv2v.Result) []byte {
	var e persist.Encoder
	for _, w := range r.Windows {
		sim.EncodeWindowResult(&e, w)
	}
	return e.Bytes()
}

// TestCrashReexecutionByteIdentical is the torture smoke for recovery by
// re-execution: one trial panics mid-run at a seed-hashed frame, and the
// other trials' pooled tables and series must equal the merge of their
// clean per-trial results with the crashed slot left empty — across worker
// counts. Re-running the crashed trial alone from its TrialError seed must
// then reproduce the clean trial byte for byte.
func TestCrashReexecutionByteIdentical(t *testing.T) {
	const trials, crashed = 3, 1
	base := replayScenario(77)
	base.Stats = true
	factory := mmv2v.MMV2V(mmv2v.DefaultParams())
	clean := make([]*sim.Result, trials)
	if _, err := sim.NewRunner(0).RunTrialsEach(base, factory, trials, func(tr int, r *sim.Result) { clean[tr] = r }); err != nil {
		t.Fatal(err)
	}
	survivors := append([]*sim.Result(nil), clean...)
	survivors[crashed] = nil
	want := sim.MergeTrials(survivors)

	framesPerWindow := int(base.WindowSec / base.Timing.Frame.Seconds())
	target := xrand.Mix(base.Seed, crashed)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := base
			cfg.Workers = workers
			res, err := mmv2v.RunTrials(cfg, crashAt(factory, target, framesPerWindow, cfg.Windows), trials)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Failures) != 1 || res.Failures[0].Trial != crashed || res.Failures[0].Seed != target {
				t.Fatalf("failures = %v, want trial %d alone", res.Failures, crashed)
			}
			requireSameResult(t, "survivors vs clean merge", want, res)
			if got, want := seriesExport(t, res), seriesExport(t, want); !bytes.Equal(got, want) {
				t.Fatal("survivors' series diverged from the clean merge")
			}

			rerun := cfg
			rerun.Seed = res.Failures[0].Seed
			again, err := mmv2v.Run(rerun, factory)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "re-executed vs clean trial", clean[crashed], again)
			if !bytes.Equal(windowBytes(again), windowBytes(clean[crashed])) {
				t.Fatal("re-executed trial's windows differ from the clean trial's")
			}
			if got, want := seriesExport(t, again), seriesExport(t, clean[crashed]); !bytes.Equal(got, want) {
				t.Fatal("re-executed trial's series differs from the clean trial's")
			}
		})
	}
}

// TestRunLogRoundTrip pins the replay contract end to end: a logged run
// re-renders byte-identically, verifies against live re-execution at
// several worker counts, and detects truncation and tampering.
func TestRunLogRoundTrip(t *testing.T) {
	cfg := replayScenario(31)
	h := mmv2v.RunLogHeader{
		Protocol: "mmv2v", K: 3, M: 40, C: 7,
		DensityVPL: 10, Seed: 31, Trials: 2,
		WindowSec: cfg.WindowSec, Windows: cfg.Windows, DemandBits: cfg.DemandBits,
	}
	path := filepath.Join(t.TempDir(), "run.log")
	live, err := mmv2v.RunTrialsLogged(cfg, mmv2v.MMV2V(mmv2v.DefaultParams()), 2, h, path)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := mmv2v.ReadRunLog(path)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "replayed vs live", live, rl.Result())
	for _, workers := range []int{1, 4} {
		div, err := rl.Verify(workers)
		if err != nil {
			t.Fatal(err)
		}
		if div != nil {
			t.Fatalf("verify (workers=%d) diverged: %s", workers, div)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Logs are written whole, so a log cut short anywhere — inside a
	// record or exactly between two — is an ErrTruncated error.
	torn := filepath.Join(t.TempDir(), "torn.log")
	for _, cut := range truncationCuts(t, data) {
		if err := os.WriteFile(torn, data[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := mmv2v.ReadRunLog(torn); !errors.Is(err, persist.ErrTruncated) {
			t.Fatalf("log cut to %d of %d bytes: err = %v, want ErrTruncated", cut, len(data), err)
		}
	}

	// An interior bit flip is real corruption: a structured error, never a
	// panic, and never a silently different table.
	bad := filepath.Join(t.TempDir(), "bad.log")
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x10
	if err := os.WriteFile(bad, flipped, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := mmv2v.ReadRunLog(bad); err == nil {
		t.Error("bit-flipped log decoded cleanly")
	}

	// A forged window record (contents and digest rewritten consistently,
	// record CRC re-stamped) parses — and -verify catches it as the first
	// divergence against live re-execution.
	forged := forgeWindowRecord(t, data)
	forgedPath := filepath.Join(t.TempDir(), "forged.log")
	if err := os.WriteFile(forgedPath, forged, 0o600); err != nil {
		t.Fatal(err)
	}
	frl, err := mmv2v.ReadRunLog(forgedPath)
	if err != nil {
		t.Fatalf("forged log should parse (tampering is semantically valid): %v", err)
	}
	div, err := frl.Verify(0)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("verify missed the forged window")
	}
	if div.Trial != 0 || div.Window != 0 {
		t.Errorf("first divergence at (%d, %d), want (0, 0)", div.Trial, div.Window)
	}
}

// truncationCuts lists lengths to cut a log to: every record boundary and
// the bytes either side of it, plus a stride through the record bodies.
func truncationCuts(t *testing.T, data []byte) []int {
	t.Helper()
	recs, err := persist.ReadLog(data)
	if err != nil {
		t.Fatal(err)
	}
	const logHeader, recordHeader = 12, 9
	var cuts []int
	for cut := 0; cut < len(data); cut += 61 {
		cuts = append(cuts, cut)
	}
	off := logHeader
	for _, r := range recs {
		cuts = append(cuts, off-1, off, off+1)
		off += recordHeader + len(r.Payload)
	}
	if off != len(data) {
		t.Fatalf("records span %d bytes, log has %d", off, len(data))
	}
	return append(cuts, len(data)-1)
}

// forgeWindowRecord rewrites the first window record of a run log: it
// perturbs the window's AvgNeighbors, recomputes the digest so the log
// stays self-consistent, and re-stamps the record CRC.
func forgeWindowRecord(t *testing.T, data []byte) []byte {
	t.Helper()
	recs, err := persist.ReadLog(data)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	log := persist.NewLog()
	forgedOne := false
	for _, rec := range recs {
		payload := append([]byte(nil), rec.Payload...)
		if rec.Type == 2 && !forgedOne { // first window record
			d := persist.NewDecoder(payload)
			tr := d.Int()
			_ = d.U64()
			w := sim.DecodeWindowResult(d)
			if err := d.Err(); err != nil {
				t.Fatal(err)
			}
			w.AvgNeighbors++
			var e persist.Encoder
			e.Int(tr)
			e.U64(sim.WindowDigest(tr, w))
			sim.EncodeWindowResult(&e, w)
			payload = e.Bytes()
			forgedOne = true
		}
		log = persist.AppendRecord(log, rec.Type, payload)
	}
	if !forgedOne {
		t.Fatal("no window record found to forge")
	}
	return log
}

// TestGoldenRunLogReplays pins the committed golden run log: the current
// build must re-render it and re-execute it digest-identically — the CI
// replay gate against silent determinism regressions. Regenerate with
//
//	go run ./cmd/mmv2v-sim -density 10 -seed 7 -trials 2 -seconds 0.2 \
//	    -windows 2 -runlog testdata/golden.runlog
//
// only when a change intentionally alters simulation results.
func TestGoldenRunLogReplays(t *testing.T) {
	rl, err := mmv2v.ReadRunLog(filepath.Join("testdata", "golden.runlog"))
	if err != nil {
		t.Fatal(err)
	}
	res := rl.Result()
	if res.Trials != rl.Header.Trials {
		t.Errorf("golden log replays %d trials, header declares %d", res.Trials, rl.Header.Trials)
	}
	div, err := rl.Verify(0)
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("this build diverges from the golden run log: %s", div)
	}
}

// TestRunLogHeaderMustReconstructScenario pins that RunTrialsLogged refuses
// to write a log that could not replay the run it records.
func TestRunLogHeaderMustReconstructScenario(t *testing.T) {
	cfg := replayScenario(31)
	h := mmv2v.RunLogHeader{
		Protocol: "mmv2v", K: 3, M: 40, C: 7,
		DensityVPL: 12, // does not match cfg's density 10
		Seed:       31, Trials: 1,
		WindowSec: cfg.WindowSec, Windows: cfg.Windows, DemandBits: cfg.DemandBits,
	}
	path := filepath.Join(t.TempDir(), "run.log")
	if _, err := mmv2v.RunTrialsLogged(cfg, mmv2v.MMV2V(mmv2v.DefaultParams()), 1, h, path); err == nil {
		t.Fatal("mismatched header accepted")
	} else if !strings.Contains(err.Error(), "reconstruct") {
		t.Errorf("unexpected error: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("log file written despite header mismatch")
	}
}
