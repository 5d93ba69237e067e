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
// hashers resolve the row in batches (pairBatch), MD5 four pairs at a
// time.
func (s *Selector) RelatedRow(u ids.ID, vs []ids.ID, skipRev []bool, hits []int32) []int32 {
	if !s.fast {
		return s.relatedRow(nil, u, vs, skipRev, hits)
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

// relatedRow is RelatedRow through a pairBatch, consulting memo m
// first unless it is nil.
func (s *Selector) relatedRow(m *MemoSelector, u ids.ID, vs []ids.ID, skipRev []bool, hits []int32) []int32 {
	var b pairBatch
	ui := memoIndex(u)
	for j, v := range vs {
		if v == u {
			continue
		}
		vi := memoIndex(v)
		b.add(int32(2*j), u, v, m.cell(ui, vi))
		if b.due(m) {
			hits = b.resolve(s, m, hits)
		}
		if skipRev == nil || !skipRev[j] {
			b.add(int32(2*j+1), v, u, m.cell(vi, ui))
			if b.due(m) {
				hits = b.resolve(s, m, hits)
			}
		}
	}
	return b.resolve(s, m, hits)
}

// rowBatch is how many pairs a pairBatch holds: many times md5Pairs'
// four lanes, and small enough to live on the stack.
const rowBatch = 64

// pairBatch collects a row's evaluated pairs in row order. A pair the
// memo holds is answered at once; the others are hashed together when
// the batch resolves, stored in the memo in row order, and every
// related pair's slot is appended to hits in row order. The verdicts,
// the hashed pairs and the memo's counters are those of one Related
// call per pair in row order, on any row without a repeated pair: the
// batch resolves before a lookup could miss a flush. On a row with
// repeats the verdicts still are, but a repeat of a pair the batch
// has yet to store is looked up as a miss and hashed again, so misses
// and entries are over-counted and the memo may flush earlier.
type pairBatch struct {
	n, misses int
	slot      [rowBatch]int32  // hits entry of each pair
	cell      [rowBatch]uint8  // memo cell state of each pair, then its verdict
	at        [rowBatch]uint8  // the pair each miss is
	ys, xs    [rowBatch]ids.ID // the misses
	sums      [rowBatch]uint64
}

// add collects pair (y, x), whose hits entry is slot and whose memo
// cell is in state cell. The batch is never full here (due resolves a
// full one): the index masks only spare the bounds checks.
func (b *pairBatch) add(slot int32, y, x ids.ID, cell uint8) {
	i := b.n & (rowBatch - 1)
	b.n++
	b.slot[i], b.cell[i] = slot, cell
	if cell == cellUnknown {
		k := b.misses & (rowBatch - 1)
		b.misses++
		b.at[k], b.ys[k], b.xs[k] = uint8(i), y, x
	}
}

// due reports whether the batch must resolve before its next lookup:
// it is full, or storing its misses could flush memo m.
func (b *pairBatch) due(m *MemoSelector) bool {
	return b.n == rowBatch || m != nil && m.entries+b.misses > m.cap
}

// resolve hashes the batch's misses, stores them in m, appends the
// batch's related slots to hits and empties the batch.
func (b *pairBatch) resolve(s *Selector, m *MemoSelector, hits []int32) []int32 {
	ys, xs, sums := b.ys[:b.misses], b.xs[:b.misses], b.sums[:b.misses]
	if s.md5 {
		md5Pairs(ys, xs, sums)
	} else {
		for k := range sums {
			sums[k] = s.hasher.Hash64(ys[k], xs[k])
		}
	}
	for k, sum := range sums {
		v := sum <= s.threshold
		b.cell[b.at[k]] = cellUnrelated
		if v {
			b.cell[b.at[k]] = cellRelated
		}
		if m != nil {
			m.store(memoIndex(ys[k]), memoIndex(xs[k]), v)
		}
	}
	if m != nil {
		m.hits += uint64(b.n - b.misses)
		m.misses += uint64(b.misses)
	}
	for i, slot := range b.slot[:b.n] {
		if b.cell[i] == cellRelated {
			hits = append(hits, slot)
		}
	}
	b.n, b.misses = 0, 0
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
