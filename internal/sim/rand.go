package sim

import "math/rand"

// compactSource is a 32-byte xoshiro256** rand.Source64. The standard
// library's rand.NewSource allocates a 607-word (≈ 5 KB) lagged
// Fibonacci table per source; with one private source per simulated
// node that alone costs ~500 MB at N = 100,000.
//
// xoshiro256** (Blackman & Vigna) keeps four words of state seeded
// through a splitmix64 scrambler, so every node starts at an
// effectively random position of one 2^256-period sequence and
// cross-node streams are uncorrelated. A plain per-node splitmix64
// counter is NOT good enough here: all counters share the same
// additive lattice, and the resulting cross-stream correlation showed
// up empirically as gossip partner choices aligning — rare related
// pairs stayed undiscovered forever in Theorem 1 checks.
type compactSource struct {
	s [4]uint64
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

func (s *compactSource) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

func (s *compactSource) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Seed is the canonical seeding: expand the seed with splitmix64 so the
// four state words are decorrelated even for adjacent seeds, and the
// all-zero state is unreachable.
func (s *compactSource) Seed(seed int64) {
	z := uint64(seed)
	for i := range s.s {
		z += 0x9E3779B97F4A7C15
		w := z
		w = (w ^ (w >> 30)) * 0xBF58476D1CE4E5B9
		w = (w ^ (w >> 27)) * 0x94D049BB133111EB
		s.s[i] = w ^ (w >> 31)
	}
}

// CompactRNG is CompactRand's state by value — the xoshiro source and
// the rand.Rand that draws from it — so an object that owns a private
// stream (a lane, a simulated node's block) holds it inline instead of
// behind two more pointers.
type CompactRNG struct {
	src compactSource
	rng rand.Rand
}

// Seed starts the stream at seed and returns its generator. The
// generator points into r, so r must stay where it is from here on.
func (r *CompactRNG) Seed(seed int64) *rand.Rand {
	r.src.Seed(seed)
	r.rng = *rand.New(&r.src)
	return &r.rng
}

// CompactRand returns a deterministic *rand.Rand backed by a 32-byte
// xoshiro256** source, for workloads that hold one private source per
// simulated node.
func CompactRand(seed int64) *rand.Rand {
	return new(CompactRNG).Seed(seed)
}
