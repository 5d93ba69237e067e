package sim

import "math/rand"

// CompactRNG is a 32-byte xoshiro256** generator. The standard
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
//
// It is a rand.Source64, and it draws Intn, Int63n, Float64 and
// Shuffle itself with math/rand's algorithms over the same Int63, so
// an owner that needs only those (a simulated node's block) holds the
// 32-byte state instead of a rand.Rand around it. The values equal
// rand.New(src)'s, draw for draw.
type CompactRNG struct {
	s [4]uint64
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 advances the state one xoshiro256** step.
func (r *CompactRNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Int63 is Uint64's top 63 bits, as rand.Rand reads a Source64.
func (r *CompactRNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Seed is the canonical seeding: expand the seed with splitmix64 so the
// four state words are decorrelated even for adjacent seeds, and the
// all-zero state is unreachable.
func (r *CompactRNG) Seed(seed int64) {
	z := uint64(seed)
	for i := range r.s {
		z += 0x9E3779B97F4A7C15
		w := z
		w = (w ^ (w >> 30)) * 0xBF58476D1CE4E5B9
		w = (w ^ (w >> 27)) * 0x94D049BB133111EB
		r.s[i] = w ^ (w >> 31)
	}
}

// Int63n is rand.Rand's Int63n.
func (r *CompactRNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// int31n is rand.Rand's Int31n, over Int31 = Int63 >> 32.
func (r *CompactRNG) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(r.Int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(r.Int63() >> 32)
	for v > max {
		v = int32(r.Int63() >> 32)
	}
	return v % n
}

// Intn is rand.Rand's Intn.
func (r *CompactRNG) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 is rand.Rand's Float64.
func (r *CompactRNG) Float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// lemire31n is the bound rand.Rand's Shuffle draws with: Lemire's
// multiply-shift over Uint32 = Int63 >> 31, not Int31n's rejection.
func (r *CompactRNG) lemire31n(n int32) int32 {
	prod := uint64(uint32(r.Int63()>>31)) * uint64(n)
	low := uint32(prod)
	if low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			prod = uint64(uint32(r.Int63()>>31)) * uint64(n)
			low = uint32(prod)
		}
	}
	return int32(prod >> 32)
}

// Shuffle is rand.Rand's Shuffle.
func (r *CompactRNG) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("invalid argument to Shuffle")
	}
	i := n - 1
	for ; i > 1<<31-1-1; i-- {
		swap(i, int(r.Int63n(int64(i+1))))
	}
	for ; i > 0; i-- {
		swap(i, int(r.lemire31n(int32(i+1))))
	}
}

// CompactRand returns a deterministic *rand.Rand drawing from a
// CompactRNG, both in one allocation, for owners that need the rest of
// rand.Rand's methods (a lane's latency and loss models).
func CompactRand(seed int64) *rand.Rand {
	o := new(struct {
		rng rand.Rand
		src CompactRNG
	})
	o.src.Seed(seed)
	o.rng = *rand.New(&o.src)
	return &o.rng
}
