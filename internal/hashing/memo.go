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
// verdicts, for the checks that come one pair at a time: a NOTIFY's
// re-check and a report's verification. Those repeat a small set of
// pairs — the monitors of every subject a read-out asks about — and
// the memo answers a repeat for less than one MD5 or SHA-1 digest.
// The discovery sweep's rows pass straight to the selector
// (RelatedRow): a batched MD5 digest costs no more than the matrix's
// cache misses, and set-up measured faster without them.
//
// The memo is a dense matrix of 2-bit cells (known, verdict) indexed by
// the identities' simulated node numbers (ids.SimIndex): a row per y,
// 32 cells per word, allocated on the first verdict stored for y and
// doubled when a higher x arrives — at most N²/4 bytes for an N-node
// population (1 MB at N = 2000). FastHasher's mix costs less than a
// hit, so it runs unwrapped (the avmon package wires this policy up
// for simulated clusters).
//
// Memoization is invisible to results by construction: Related returns
// exactly what the wrapped selector returns, and flushes affect only
// speed. A MemoSelector is NOT safe for concurrent use; it is meant for
// a one-shard simulation. Sharded clusters and concurrent deployments
// (Service) use the plain Selector.
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
	yi, xi := memoIndex(y), memoIndex(x)
	if c := m.cell(yi, xi); c != cellUnknown {
		m.hits++
		return c == cellRelated
	}
	m.misses++
	v := m.inner.Related(y, x)
	m.store(yi, xi, v)
	return v
}

// RelatedRow is Selector.RelatedRow: a row is hashed, not memoized.
func (m *MemoSelector) RelatedRow(u ids.ID, vs []ids.ID, skipRev []bool, hits []int32) []int32 {
	return m.inner.RelatedRow(u, vs, skipRev, hits)
}

// memoIndex returns the matrix index of id, or -1 if the matrix does
// not cover it.
func memoIndex(id ids.ID) int {
	if i, ok := ids.SimIndex(id); ok && i < memoMaxIndex {
		return i
	}
	return -1
}

// The states of a matrix cell.
const cellUnknown, cellUnrelated, cellRelated = 0, 1, 3

// cell returns the state of pair (yi, xi), by matrix index. An index
// of -1 holds nothing.
func (m *MemoSelector) cell(yi, xi int) uint8 {
	if yi < 0 || xi < 0 || yi >= len(m.rows) || xi>>5 >= len(m.rows[yi]) {
		return cellUnknown
	}
	return uint8(m.rows[yi][xi>>5]>>(uint(xi&31)*2)) & 3
}

// store records verdict v for pair (yi, xi), by matrix index, growing
// the row table and the row as needed, or not at all if the row does
// not fit or the matrix does not cover the pair.
func (m *MemoSelector) store(yi, xi int, v bool) {
	if yi < 0 || xi < 0 {
		return
	}
	if m.entries >= m.cap {
		m.Reset() // epoch flush: no per-entry recency to track
	}
	if yi >= len(m.rows) {
		m.rows = grown(m.rows, yi)
	}
	row, w := m.rows[yi], xi>>5
	if w >= len(row) {
		grow := (1<<bits.Len(uint(w)) - len(row)) * 8
		if m.bytes+grow > memoRowBytes {
			return
		}
		m.bytes += grow
		row = grown(row, w)
		m.rows[yi] = row
	}
	cell := uint64(cellUnrelated)
	if v {
		cell = cellRelated
	}
	row[w] |= cell << (uint(xi&31) * 2)
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
