package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCompactRNGMatchesMathRand holds CompactRNG's own draws to
// rand.Rand's over an identically seeded CompactRNG source, for seeds 1
// to 1000: Intn on both sides of the 31-bit split and where rejection is
// likely (2³⁰+1), Int63n with a power of two and a bound rejecting half
// its draws, Float64, and Shuffle, whose bound is Lemire's rather than
// Intn's. A simulated node draws from the former and every recorded
// fingerprint from the latter, so one differing value moves them all.
func TestCompactRNGMatchesMathRand(t *testing.T) {
	intns := []int{1, 2, 3, 27, 48, 49, 1<<30 + 1, 1<<31 - 1, 1<<40 + 3}
	int63ns := []int64{1, 2, 3, 1 << 40, 1<<62 + 1, 1<<63 - 1}
	shuffles := []int{0, 1, 2, 3, 11, 27, 48}
	perm := func(n int, shuffle func(int, func(i, j int))) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p
	}
	for seed := int64(1); seed <= 1000; seed++ {
		var got, src CompactRNG
		got.Seed(seed)
		src.Seed(seed)
		want := rand.New(&src)
		for round := 0; round < 3; round++ {
			for _, n := range intns {
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d: Intn(%d) = %d, math/rand's %d", seed, n, g, w)
				}
			}
			for _, n := range int63ns {
				if g, w := got.Int63n(n), want.Int63n(n); g != w {
					t.Fatalf("seed %d: Int63n(%d) = %d, math/rand's %d", seed, n, g, w)
				}
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64() = %v, math/rand's %v", seed, g, w)
			}
			for _, n := range shuffles {
				if g, w := perm(n, got.Shuffle), perm(n, want.Shuffle); !slices.Equal(g, w) {
					t.Fatalf("seed %d: Shuffle(%d) = %v, math/rand's %v", seed, n, g, w)
				}
			}
		}
		if got != src {
			t.Fatalf("seed %d: the streams consumed different numbers of draws", seed)
		}
	}
}
