package hashing

import (
	"math/bits"

	"avmon/internal/ids"
)

const (
	// memoMaxIndex bounds the identities the matrix covers: simulated
	// ones (ids.Sim) numbered below it. Any other identity's pairs go
	// straight to the selector.
	memoMaxIndex = 1 << 16
	// memoMaxBytes bounds what a MemoSelector holds: the row table (at
	// most one slice header per covered identity) plus the rows. A row
	// that would not fit is not allocated and its pairs are hashed every
	// time: the memo stops memoising, it never evicts to make room.
	memoMaxBytes = 64 << 20
	memoRowBytes = memoMaxBytes - memoMaxIndex*24

	// DefaultMemoCapacity is the default bound on memoized verdicts
	// before an epoch flush: all that memoMaxBytes could hold, so by
	// default the byte bound alone governs and nothing is flushed.
	DefaultMemoCapacity = memoMaxBytes * 4
)

// MemoSelector wraps a Selector with a bounded memo of Related
// verdicts. During a coarse-view discovery sweep the same (y, x) pair
// is re-evaluated many times — by the discoverer, by both notified
// endpoints, and again on every later sweep that sees the pair — so a
// memo lets each pair be hashed about once.
//
// The memo is a dense matrix of 2-bit cells (known, verdict) indexed by
// the identities' simulated node numbers (ids.SimIndex): a row per y,
// 32 cells per word, allocated on the first verdict stored for y and
// doubled when a higher x arrives — N²/4 bytes once every pair of an
// N-node population has been seen (1 MB at N = 2000). A hit is two
// index computations, a load and a shift: far below an MD5 or SHA-1
// digest, still above FastHasher's mix, which therefore runs unwrapped
// (the avmon package wires this policy up for simulated clusters).
//
// Memoization is invisible to results by construction: Related returns
// exactly what the wrapped selector returns, and flushes affect only
// speed. A MemoSelector is NOT safe for concurrent use; it is meant for
// the discrete-event simulator, one instance per engine worker.
// Concurrent deployments (Service) use the plain Selector.
type MemoSelector struct {
	inner *Selector
	cap   int
	rows  [][]uint64 // rows[yi][xi/32] >> (xi%32·2): bit 0 known, bit 1 verdict
	bytes int        // held by the rows

	entries int
	hits    uint64
	misses  uint64
	flushes uint64
}

// Memoize wraps sel with a bounded pair-verdict memo. capacity ≤ 0
// selects DefaultMemoCapacity.
func Memoize(sel *Selector, capacity int) *MemoSelector {
	if capacity <= 0 {
		capacity = DefaultMemoCapacity
	}
	return &MemoSelector{inner: sel, cap: capacity}
}

// Related reports whether y ∈ PS(x), hashing the pair only on a memo
// miss.
func (m *MemoSelector) Related(y, x ids.ID) bool {
	yi, yok := ids.SimIndex(y)
	xi, xok := ids.SimIndex(x)
	if !yok || !xok || yi >= memoMaxIndex || xi >= memoMaxIndex {
		m.misses++
		return m.inner.Related(y, x)
	}
	w, shift := xi>>5, uint(xi&31)*2
	if yi < len(m.rows) && w < len(m.rows[yi]) {
		if cell := m.rows[yi][w] >> shift; cell&1 != 0 {
			m.hits++
			return cell&2 != 0
		}
	}
	m.misses++
	v := m.inner.Related(y, x)
	m.store(yi, w, shift, v)
	return v
}

// RelatedRow implements the discovery sweep's batched form (see
// Selector.RelatedRow), one memo lookup per evaluated pair.
func (m *MemoSelector) RelatedRow(u ids.ID, vs []ids.ID, skipRev []bool, hits []int32) []int32 {
	return rowByPair(m, u, vs, skipRev, hits)
}

// store records verdict v in cell (yi, word w, shift), growing the row
// table and the row as needed, or not at all if the row does not fit.
func (m *MemoSelector) store(yi, w int, shift uint, v bool) {
	if m.entries >= m.cap {
		m.Reset() // epoch flush: no per-entry recency to track
	}
	if yi >= len(m.rows) {
		m.rows = grown(m.rows, yi)
	}
	row := m.rows[yi]
	if w >= len(row) {
		grow := (1<<bits.Len(uint(w)) - len(row)) * 8
		if m.bytes+grow > memoRowBytes {
			return
		}
		m.bytes += grow
		row = grown(row, w)
		m.rows[yi] = row
	}
	cell := uint64(1)
	if v {
		cell = 3
	}
	row[w] |= cell << shift
	m.entries++
}

// grown returns s zero-extended to the smallest power-of-two length
// above i.
func grown[T any](s []T, i int) []T {
	n := 1 << bits.Len(uint(i))
	return append(make([]T, 0, n), s...)[:n]
}

// K returns the pinging-set parameter of the wrapped selector.
func (m *MemoSelector) K() int { return m.inner.K() }

// N returns the expected stable system size of the wrapped selector.
func (m *MemoSelector) N() int { return m.inner.N() }

// Hasher returns the wrapped selector's hash function.
func (m *MemoSelector) Hasher() Hasher { return m.inner.Hasher() }

// Threshold returns the wrapped selector's 64-bit threshold.
func (m *MemoSelector) Threshold() uint64 { return m.inner.Threshold() }

// Unwrap returns the wrapped selector.
func (m *MemoSelector) Unwrap() *Selector { return m.inner }

// MemoStats reports cache effectiveness counters.
type MemoStats struct {
	Hits    uint64 // Related calls answered from the memo
	Misses  uint64 // Related calls that hashed
	Flushes uint64 // epoch flushes: the capacity bound, or Reset
	Entries int    // pairs currently memoized
}

// Stats returns a snapshot of the memo counters.
func (m *MemoSelector) Stats() MemoStats {
	return MemoStats{Hits: m.hits, Misses: m.misses, Flushes: m.flushes, Entries: m.entries}
}

// Reset drops all memoized verdicts and releases the matrix (the
// counters survive).
func (m *MemoSelector) Reset() {
	m.rows, m.bytes, m.entries = nil, 0, 0
	m.flushes++
}
