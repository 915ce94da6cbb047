// Package xrand provides deterministic, splittable pseudo-random streams.
//
// Every source of randomness in the simulator — traffic generation, the
// paper's probabilistic role selection, random sector choices in the ROP
// baseline, PCP election in the 802.11ad baseline — derives from a single
// 64-bit scenario seed through named sub-streams, so that an entire
// simulation is reproducible bit-for-bit from one seed. Sub-streams are
// derived by hashing (seed, label, index) with SplitMix64 so that, e.g.,
// vehicle 7's round-3 coin flip is independent of everything else and stable
// across runs regardless of event ordering.
package xrand

import "math/rand"

// splitMix64 advances the SplitMix64 generator state and returns the next
// output. It is the standard 64-bit finalizer-based mixer from Steele et al.,
// used here to derive independent seeds.
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Mix hashes together an arbitrary list of 64-bit values into one
// well-distributed 64-bit value. It is the derivation function used for all
// sub-stream seeds.
func Mix(vs ...uint64) uint64 {
	state := uint64(mixInit)
	for _, v := range vs {
		state = mixStep(state, v)
	}
	return mixFinish(state)
}

// mixInit is Mix's initial state: the fractional bits of sqrt(2).
const mixInit = 0x6a09e667f3bcc909

// mixStep folds one value into a Mix state.
func mixStep(state, v uint64) uint64 {
	state ^= v
	state, out := splitMix64(state)
	return state ^ out
}

// mixFinish turns a Mix state into its output.
func mixFinish(state uint64) uint64 {
	_, out := splitMix64(state)
	return out
}

// HashString folds a string into a 64-bit value using FNV-1a, for deriving
// sub-streams from labels.
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// sm64 is a SplitMix64 generator implementing math/rand's Source64: 8 bytes
// of state instead of the 5 KB of the default source, which matters because
// the simulator derives millions of child streams.
type sm64 struct {
	state uint64
}

func (s *sm64) Uint64() uint64 {
	var out uint64
	s.state, out = splitMix64(s.state)
	return out
}

func (s *sm64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *sm64) Seed(seed int64) { s.state = uint64(seed) }

// Source is a deterministic random stream backed by SplitMix64, exposed
// through math/rand for its distribution helpers, and supporting derivation
// of independent child streams.
type Source struct {
	seed  uint64
	state *sm64
	rng   *rand.Rand
}

// New returns a Source rooted at the given seed.
func New(seed uint64) *Source {
	st := &sm64{state: Mix(seed)}
	return &Source{seed: seed, state: st, rng: rand.New(st)}
}

// Seed returns the seed this source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// Child derives an independent stream identified by a label and an arbitrary
// list of indices (for example ("role", vehicleID, round)). Calling Child
// with the same arguments always yields an identically seeded stream, and it
// does not consume state from the parent, so derivation order is irrelevant.
func (s *Source) Child(label string, idx ...uint64) *Source {
	return New(s.childSeed(label, idx))
}

// Rederive re-seeds s in place as the stream parent.Child(label, idx...)
// would be seeded, so its draws are identical to that child's. It is for
// hot loops that derive one short-lived child per entity per slot: s keeps
// its generator across calls, so only the first Rederive of a zero Source
// allocates. s must not be parent itself.
func (s *Source) Rederive(parent *Source, label string, idx ...uint64) {
	s.seed = parent.childSeed(label, idx)
	if s.rng == nil {
		s.state = &sm64{}
		s.rng = rand.New(s.state)
	}
	// Seed stores the mixed seed in the generator (as New does) and drops
	// any buffered Read bytes, leaving no trace of the previous stream.
	s.rng.Seed(int64(Mix(s.seed)))
}

// childSeed is the seed of s.Child(label, idx...):
// Mix(s.seed, HashString(label), idx...), folded without building a slice.
func (s *Source) childSeed(label string, idx []uint64) uint64 {
	state := mixStep(mixInit, s.seed)
	state = mixStep(state, HashString(label))
	for _, v := range idx {
		state = mixStep(state, v)
	}
	return mixFinish(state)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.rng.Uint64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rng.Float64() < p }

// UniformRange returns a uniform value in [lo, hi).
func (s *Source) UniformRange(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// NormFloat64 returns a standard normal variate.
func (s *Source) NormFloat64() float64 { return s.rng.NormFloat64() }

// ExpFloat64 returns an exponential variate with rate 1.
func (s *Source) ExpFloat64() float64 { return s.rng.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }
