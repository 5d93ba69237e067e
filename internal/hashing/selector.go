package hashing

import (
	"fmt"
	"math/bits"

	"avmon/internal/ids"
)

// Selector implements the paper's consistency condition
//
//	y ∈ PS(x)  ⇐⇒  H(y, x) ≤ K/N
//
// for a fixed hash function and fixed parameters K and N (Section 3.1).
// Because K, N, and H are system-wide constants, the relation is
// consistent (independent of churn and of who evaluates it),
// verifiable (any third node can recompute it), and random (H is
// uniform and pairwise uncorrelated).
type Selector struct {
	hasher    Hasher
	fast      bool // hasher is FastHasher: statically dispatch the hot path
	md5       bool // hasher is MD5Hasher: RelatedRow hashes through md5Pairs
	k         int
	n         int
	threshold uint64 // floor(K/N * 2^64), the integer form of K/N
}

// NewSelector builds a Selector with pinging-set parameter k and
// expected stable system size n. It returns an error on non-positive
// parameters or k > n (the condition would then be vacuous or total).
func NewSelector(h Hasher, k, n int) (*Selector, error) {
	if h == nil {
		return nil, fmt.Errorf("hashing: nil hasher")
	}
	if k <= 0 || n <= 0 {
		return nil, fmt.Errorf("hashing: K and N must be positive (K=%d, N=%d)", k, n)
	}
	if k > n {
		return nil, fmt.Errorf("hashing: K must not exceed N (K=%d, N=%d)", k, n)
	}
	_, fast := h.(FastHasher)
	_, md5 := h.(MD5Hasher)
	return &Selector{hasher: h, fast: fast, md5: md5, k: k, n: n, threshold: threshold64(k, n)}, nil
}

// threshold64 returns floor(k/n · 2^64), the exact 64-bit fixed-point
// form of K/N, computed with a 128-by-64-bit division. The earlier
// float64 route (uint64(frac · 2^64)) both lost precision for most
// K/N ratios and hit undefined float→uint conversion behavior when the
// product rounded up to exactly 2^64 (K close to N); every node must
// agree on the threshold bit-for-bit or the relation stops being
// consistent.
func threshold64(k, n int) uint64 {
	if k >= n {
		// K/N ≥ 1: the condition H ≤ K/N holds for every hash value.
		return ^uint64(0)
	}
	// k < n guarantees the quotient of (k·2^64)/n fits in 64 bits.
	q, _ := bits.Div64(uint64(k), 0, uint64(n))
	return q
}

// Related reports whether y ∈ PS(x), i.e. whether y monitors x. The
// discovery sweep evaluates this Θ(cvs²) times per node per period,
// so the FastHasher case dispatches statically (the dynamic interface
// call costs more than the mix itself).
func (s *Selector) Related(y, x ids.ID) bool {
	if y == x {
		return false
	}
	if s.fast {
		return FastHasher{}.Hash64(y, x) <= s.threshold
	}
	return s.hasher.Hash64(y, x) <= s.threshold
}

// RelatedRow is the discovery sweep's batched form of Related
// (core.RowScheme): u against every vs[j] in both orders, one entry
// appended to hits per match — 2j for Related(u, vs[j]), then 2j+1 for
// Related(vs[j], u) unless skipRev[j]. For FastHasher the mix is
// inlined with u's two multiplies hoisted out of the loop; the other
// hashers resolve the row in batches (pairBatch), MD5 through md5Pairs.
func (s *Selector) RelatedRow(u ids.ID, vs []ids.ID, skipRev []bool, hits []int32) []int32 {
	if !s.fast {
		return s.batchedRow(u, vs, skipRev, hits)
	}
	thr := s.threshold
	uy := uint64(u) * fastMulY
	ux := bits.RotateLeft64(uint64(u)*fastMulX, 31)
	for j, v := range vs {
		if fastMix(uy^bits.RotateLeft64(uint64(v)*fastMulX, 31)) <= thr && v != u {
			hits = append(hits, int32(2*j))
		}
		if fastMix(uint64(v)*fastMulY^ux) <= thr && v != u && (skipRev == nil || !skipRev[j]) {
			hits = append(hits, int32(2*j+1))
		}
	}
	return hits
}

// batchedRow is RelatedRow through a pairBatch.
func (s *Selector) batchedRow(u ids.ID, vs []ids.ID, skipRev []bool, hits []int32) []int32 {
	var b pairBatch
	for j, v := range vs {
		if v == u {
			continue
		}
		if b.n > rowBatch-2 {
			hits = b.resolve(s, hits)
		}
		b.add(int32(2*j), u, v)
		if skipRev == nil || !skipRev[j] {
			b.add(int32(2*j+1), v, u)
		}
	}
	return b.resolve(s, hits)
}

// rowBatch is how many pairs a pairBatch holds: several of md5Pairs'
// sixteen lanes, and small enough to live on the stack.
const rowBatch = 64

// pairBatch collects a row's evaluated pairs in row order, hashes them
// together when it resolves, and appends every related pair's slot to
// hits in row order.
type pairBatch struct {
	n      int
	slot   [rowBatch]int32 // hits entry of each pair
	ys, xs [rowBatch]ids.ID
	sums   [rowBatch]uint64
}

// add collects pair (y, x), whose hits entry is slot. The batch is
// never full here: the index mask only spares the bounds checks.
func (b *pairBatch) add(slot int32, y, x ids.ID) {
	i := b.n & (rowBatch - 1)
	b.n++
	b.slot[i], b.ys[i], b.xs[i] = slot, y, x
}

// resolve hashes the batch, appends its related slots to hits and
// empties it.
func (b *pairBatch) resolve(s *Selector, hits []int32) []int32 {
	ys, xs, sums := b.ys[:b.n], b.xs[:b.n], b.sums[:b.n]
	if s.md5 {
		md5Pairs(ys, xs, sums)
	} else {
		for k := range sums {
			sums[k] = s.hasher.Hash64(ys[k], xs[k])
		}
	}
	for k, sum := range sums {
		if sum <= s.threshold {
			hits = append(hits, b.slot[k])
		}
	}
	b.n = 0
	return hits
}

// K returns the pinging-set parameter.
func (s *Selector) K() int { return s.k }

// N returns the expected stable system size.
func (s *Selector) N() int { return s.n }

// Hasher returns the underlying hash function.
func (s *Selector) Hasher() Hasher { return s.hasher }

// Threshold returns the 64-bit integer form of K/N.
func (s *Selector) Threshold() uint64 { return s.threshold }
