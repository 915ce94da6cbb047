package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMixDeterministic(t *testing.T) {
	a := Mix(1, 2, 3)
	b := Mix(1, 2, 3)
	if a != b {
		t.Errorf("Mix not deterministic: %x != %x", a, b)
	}
	if Mix(1, 2, 3) == Mix(3, 2, 1) {
		t.Error("Mix should be order-sensitive")
	}
	if Mix(0) == Mix(0, 0) {
		t.Error("Mix should be length-sensitive")
	}
}

func TestMixAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Mix(0xdeadbeef)
	totalFlips := 0
	const trials = 64
	for bit := 0; bit < trials; bit++ {
		v := Mix(0xdeadbeef ^ (1 << uint(bit)))
		totalFlips += popcount(base ^ v)
	}
	avg := float64(totalFlips) / trials
	if avg < 24 || avg > 40 {
		t.Errorf("avalanche average = %.1f bits, want ≈32", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestHashString(t *testing.T) {
	if HashString("") != 14695981039346656037 {
		t.Error("empty string should hash to FNV offset basis")
	}
	if HashString("role") == HashString("sector") {
		t.Error("distinct labels should hash differently")
	}
	if HashString("ab") == HashString("ba") {
		t.Error("hash should be order-sensitive")
	}
}

func TestSourceDeterminism(t *testing.T) {
	s1 := New(42)
	s2 := New(42)
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatal("same-seed sources diverged")
		}
	}
}

func TestChildIndependentOfParentState(t *testing.T) {
	s1 := New(7)
	s2 := New(7)
	// Consuming parent state must not change child derivation.
	for i := 0; i < 10; i++ {
		s1.Uint64()
	}
	c1 := s1.Child("traffic", 3)
	c2 := s2.Child("traffic", 3)
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("child streams depend on parent consumption")
		}
	}
}

func TestChildDistinctByLabelAndIndex(t *testing.T) {
	s := New(7)
	a := s.Child("role", 1).Uint64()
	b := s.Child("role", 2).Uint64()
	c := s.Child("sector", 1).Uint64()
	if a == b || a == c || b == c {
		t.Errorf("child streams collide: %x %x %x", a, b, c)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(99)
	const n = 20000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < n; i++ {
			if s.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.02 {
			t.Errorf("Bool(%v) frequency = %v", p, got)
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		v := s.UniformRange(40, 60)
		if v < 40 || v >= 60 {
			t.Fatalf("UniformRange out of bounds: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-50) > 0.5 {
		t.Errorf("UniformRange mean = %v, want ≈50", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n)%20 + 1
		p := New(seed).Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixUniformity(t *testing.T) {
	// Bucket Mix outputs of sequential inputs; expect near-uniform spread.
	const buckets = 16
	const n = 16000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[Mix(uint64(i))%buckets]++
	}
	want := n / buckets
	for b, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d count %d, want ≈%d", b, c, want)
		}
	}
}

// TestRederiveMatchesChild pins Rederive to Child: a Source re-derived in
// place draws exactly what a freshly derived child with the same arguments
// draws, whatever stream it held before.
func TestRederiveMatchesChild(t *testing.T) {
	parents := []*Source{New(0), New(1), New(0xdeadbeef)}
	tests := []struct {
		label string
		idx   []uint64
	}{
		{"", nil},
		{"protocol", nil},
		{"rop.slot", []uint64{0, 0, 0}},
		{"rop.slot", []uint64{7, 3, 143}},
		{"rop.pick", []uint64{7, 3, 1}},
		{"mmv2v.role", []uint64{99, 12, 5}},
		{"mmv2v.dcm.pick", []uint64{1 << 63, 1, 39}},
		{"t2", []uint64{4, 1, 2, 3, 4, 5, 6, 7, 8}},
	}
	// draws exercises every distribution helper, including the ones whose
	// math/rand implementations consume a varying number of outputs.
	draws := func(s *Source) []float64 {
		out := []float64{s.Float64(), float64(s.Uint64() >> 11), float64(s.Intn(24)), s.NormFloat64(), s.ExpFloat64()}
		if s.Bool(0.5) {
			out = append(out, 1)
		}
		for _, p := range s.Perm(5) {
			out = append(out, float64(p))
		}
		return out
	}
	var re Source
	for _, p := range parents {
		for _, tt := range tests {
			want := draws(p.Child(tt.label, tt.idx...))
			re.Rederive(p, tt.label, tt.idx...)
			if re.Seed() != p.Child(tt.label, tt.idx...).Seed() {
				t.Fatalf("Rederive(%d, %q, %v) seed %x, Child seed %x", p.Seed(), tt.label, tt.idx, re.Seed(), p.Child(tt.label, tt.idx...).Seed())
			}
			got := draws(&re)
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("Rederive(%d, %q, %v) draw %d = %v, Child draws %v", p.Seed(), tt.label, tt.idx, k, got[k], want[k])
				}
			}
		}
	}
}

// TestRederiveAllocationFree pins the point of Rederive: once the Source
// holds a generator, re-deriving it allocates nothing.
func TestRederiveAllocationFree(t *testing.T) {
	p := New(1)
	var re Source
	re.Rederive(p, "rop.slot", 0, 0, 0)
	k := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		k++
		re.Rederive(p, "rop.slot", k, 3, 17)
		_ = re.Intn(24)
	})
	if allocs != 0 {
		t.Errorf("Rederive allocates %v objects per call, want 0", allocs)
	}
}
