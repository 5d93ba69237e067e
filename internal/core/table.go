package core

import (
	"avmon/internal/ids"

	"time"

	"avmon/internal/availability"
)

// This file is the index behind the node's PS and TS (see DESIGN.md,
// "Memory diet"). The consistency condition is a fixed relation over
// identities, so both sets only ever grow: each is one slice in
// discovery order (Node.ps, Node.ts) plus an open-addressing table from
// identity to slice position — no per-entry heap objects, of which a
// map of pointers cost the garbage collector millions at N = 10^6.

// idTableMinCap is the smallest non-empty table size (a power of two).
const idTableMinCap = 8

// idTableHash scrambles an identity into a table probe start
// (splitmix64 finalizer — identities are dense packed IPv4:port words,
// so the low bits need the full avalanche).
func idTableHash(id ids.ID) uint64 {
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// idTable maps identities to small payload indexes with open
// addressing and linear probing. The zero value is an empty table.
// ids.None marks empty slots and is not a valid key. It is insert-only:
// PS and TS never shed a member. Not safe for concurrent use.
type idTable struct {
	keys []ids.ID // ids.None = empty slot; always a power-of-two length
	vals []uint32
	n    int
}

func (t *idTable) len() int { return t.n }

// get returns the payload stored under id.
func (t *idTable) get(id ids.ID) (uint32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint64(len(t.keys) - 1)
	i := idTableHash(id) & mask
	for {
		switch t.keys[i] {
		case id:
			return t.vals[i], true
		case ids.None:
			return 0, false
		}
		i = (i + 1) & mask
	}
}

// put stores v under id, replacing any previous payload. Keys may not
// be None.
func (t *idTable) put(id ids.ID, v uint32) {
	if id.IsNone() {
		panic("core: idTable key cannot be None")
	}
	// Grow at 3/4 load so probe chains stay short.
	if len(t.keys) == 0 || (t.n+1)*4 > len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := idTableHash(id) & mask
	for {
		switch t.keys[i] {
		case ids.None:
			t.keys[i] = id
			t.vals[i] = v
			t.n++
			return
		case id:
			t.vals[i] = v
			return
		}
		i = (i + 1) & mask
	}
}

func (t *idTable) grow() {
	newCap := idTableMinCap
	if len(t.keys) > 0 {
		newCap = len(t.keys) * 2
	}
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]ids.ID, newCap)
	t.vals = make([]uint32, newCap)
	t.n = 0
	for i, k := range oldKeys {
		if k != ids.None {
			t.put(k, oldVals[i])
		}
	}
}

// appendChunked appends v, growing capacity by fixed chunks of 8
// instead of append's doubling. The per-node PS and TS slices plateau
// near K ≈ 13–21 entries, where doubling strands up to 11 entries per
// slice — ~1.2 KB/node of TS slack alone at N = 10⁶. Growth events are
// discovery events (a handful per node, ever), so the extra copies are
// free.
func appendChunked[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), len(s)+8)
		copy(grown, s)
		s = grown
	}
	return append(s, v)
}

// init prepares a freshly appended, zero target for monitored node id.
// The default "raw" history is inlined in the target (store stays nil);
// other styles allocate their Store. An unknown style falls back to
// raw rather than dropping the monitoring duty (avmon's config
// surfaces reject one; core.Config carries the string unchecked).
func (t *target) init(id ids.ID, historyStyle string) {
	t.id = id
	if historyStyle != "raw" {
		if store, err := availability.NewStore(historyStyle); err == nil {
			t.store = store
		}
	}
}

// monitor is one member of PS(x) and when it was found (elapsed since
// the node's birth, for the discovery-time figures).
type monitor struct {
	id    ids.ID
	found time.Duration
}
