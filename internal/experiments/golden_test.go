package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mmv2v/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// renderLegacyTables renders a reduced-scale version of every legacy
// straight-road figure (the -fig all composition) into one byte stream:
// table plus CSV for each. The options are scaled down so the whole suite
// runs in test time, but every rendering code path of the full suite is
// exercised.
func renderLegacyTables(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer

	t2, err := Theorem2(Theorem2Options{
		Seed: 1, Pairs: 5000, KValues: []int{1, 3}, PValues: []float64{0.5},
		MeasureInSim: true, ConvergenceFrames: 2, DensityVPL: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	t2.WriteTable(&buf)
	if err := t2.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	f6, err := Fig6(Fig6Options{
		Run: Run{Seed: 1, Trials: 1}, Densities: []float64{12},
		CValues: []int{1, 7}, MaxSlots: 40, Frames: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f6.WriteTable(&buf)
	if err := f6.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	f7, err := Fig7(Fig7Options{
		Run: Run{Seed: 1, Trials: 1}, DensityVPL: 12, KValues: []int{1, 3}, M: 40, CurvePoints: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	f7.WriteTable(&buf)
	if err := f7.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	f8, err := Fig8(Fig8Options{
		Run: Run{Seed: 1, Trials: 1}, DensityVPL: 12, MValues: []int{20, 40}, K: 3, CurvePoints: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	f8.WriteTable(&buf)
	if err := f8.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	f9, err := Fig9(Fig9Options{Run: Run{Seed: 1, Trials: 1}, Densities: []float64{12, 15}})
	if err != nil {
		t.Fatal(err)
	}
	f9.WriteTable(&buf)
	if err := f9.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	abl, err := Ablation(AblationOptions{Run: Run{Seed: 1, Trials: 1}, DensityVPL: 10})
	if err != nil {
		t.Fatal(err)
	}
	abl.WriteTable(&buf)
	if err := abl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	tr, err := Trucks(TrucksOptions{
		Run: Run{Seed: 1, Trials: 1}, DensityVPL: 12, Fractions: []float64{0, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.WriteTable(&buf)
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	wu, err := Warmup(WarmupOptions{Run: Run{Seed: 1, Trials: 1}, DensityVPL: 12, Windows: 2})
	if err != nil {
		t.Fatal(err)
	}
	wu.WriteTable(&buf)

	return buf.Bytes()
}

// TestLegacyTablesByteIdentical is the road-graph refactor's byte-compat
// guard: the straight-road world is now the trivial one-road special case of
// the network/spatial-hash stack, and every legacy table must stay
// byte-identical to the goldens captured before the refactor. Regenerate
// (only for an intentional, reviewed output change) with
//
//	go test ./internal/experiments -run TestLegacyTablesByteIdentical -update
func TestLegacyTablesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the reduced full-figure suite")
	}
	got := renderLegacyTables(t)
	path := filepath.Join("testdata", "legacy_tables.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden bytes to %s", len(got), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update at a known-good commit): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("legacy tables diverged from pre-refactor goldens (%d vs %d bytes)\n--- got ---\n%s",
			len(got), len(want), got)
	}
}

// TestDefaultScenarioUnchanged pins the legacy scenario constructor: the
// straight-road config the golden tables are built from must keep producing
// the same road geometry (1 km, 3 lanes/dir) regardless of how the traffic
// substrate is reorganized.
func TestDefaultScenarioUnchanged(t *testing.T) {
	cfg := sim.DefaultConfig(15, 1)
	if cfg.Traffic.Length != 1000 || cfg.Traffic.LanesPerDir != 3 {
		t.Fatalf("legacy scenario geometry changed: %+v", cfg.Traffic)
	}
}

// sweepsGolden holds named sections, each opened by a "-- name --" line:
// renders of the sweeps the legacy tables do not cover (the fault sweep, the
// city grid) and the stats/series exports of the sweeps that have them.
var sweepsGolden = filepath.Join("testdata", "sweeps.golden")

// checkSweepGolden compares got with the named section of sweepsGolden, or
// rewrites that section under -update. Sections must end in a newline.
func checkSweepGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	if !bytes.HasSuffix(got, []byte("\n")) {
		t.Fatalf("golden section %q does not end in a newline", name)
	}
	sections := map[string][]byte{}
	raw, err := os.ReadFile(sweepsGolden)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatalf("missing golden (run with -update at a known-good commit): %v", err)
	}
	cur := ""
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if n, ok := strings.CutPrefix(line, "-- "); ok && strings.HasSuffix(line, " --\n") {
			cur = strings.TrimSuffix(n, " --\n")
			sections[cur] = []byte{}
			continue
		}
		if line != "" {
			sections[cur] = append(sections[cur], line...)
		}
	}
	if *updateGolden {
		sections[name] = got
		names := make([]string, 0, len(sections))
		for n := range sections {
			names = append(names, n)
		}
		sort.Strings(names)
		var buf bytes.Buffer
		for _, n := range names {
			buf.WriteString("-- " + n + " --\n")
			buf.Write(sections[n])
		}
		if err := os.WriteFile(sweepsGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := sections[name]
	if !ok {
		t.Fatalf("%s has no section %q (run with -update at a known-good commit)", sweepsGolden, name)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%q diverged from %s (%d vs %d bytes)\n--- got ---\n%s", name, sweepsGolden, len(got), len(want), got)
	}
}
