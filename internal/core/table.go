package core

import (
	"avmon/internal/ids"

	"time"

	"avmon/internal/availability"
)

// This file is the struct-of-arrays storage behind the node's PS and
// TS (see DESIGN.md, "Memory diet"): an open-addressing index table
// keyed by identity, and a flat by-value arena for target state. At
// N = 10^6 the previous map-of-pointers layout cost the garbage
// collector millions of per-entry heap objects; these tables keep the
// same information in a handful of contiguous slices per node.

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
// ids.None marks empty slots and is not a valid key; deletion uses
// backward-shift compaction, so there are no tombstones and lookups
// stay O(1 + load) through any churn sequence. Not safe for concurrent
// use.
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

// del removes id, reporting whether it was present.
func (t *idTable) del(id ids.ID) bool {
	if t.n == 0 {
		return false
	}
	mask := uint64(len(t.keys) - 1)
	i := idTableHash(id) & mask
	for {
		switch t.keys[i] {
		case ids.None:
			return false
		case id:
			goto found
		}
		i = (i + 1) & mask
	}
found:
	// Backward-shift compaction: walk the rest of the probe chain and
	// pull back any entry whose home position lies cyclically at or
	// before the hole, so no probe path is ever broken.
	j := i
	for {
		j = (j + 1) & mask
		k := t.keys[j]
		if k == ids.None {
			break
		}
		home := idTableHash(k) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.keys[i] = k
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	t.keys[i] = ids.None
	t.n--
	return true
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

// targetArena stores target state by value in one flat slice, with a
// freelist of released slots. Slot indexes are stable for the life of
// the entry; pointers returned by at are NOT — alloc may move the
// backing array — so callers must re-resolve after any alloc and never
// retain a *target across events.
type targetArena struct {
	slots []target
	free  []uint32
}

// alloc returns the index of a zeroed slot.
func (a *targetArena) alloc() uint32 {
	if n := len(a.free); n > 0 {
		idx := a.free[n-1]
		a.free = a.free[:n-1]
		a.slots[idx] = target{}
		return idx
	}
	a.slots = appendChunked(a.slots, target{})
	return uint32(len(a.slots) - 1)
}

// appendChunked appends v, growing capacity by fixed chunks of 8
// instead of append's doubling. The per-node slices it backs (arena
// slots, discovery-order slices) plateau near K ≈ 13–21 entries, where
// doubling strands up to 11 slots per slice — ~1.3 KB/node of arena
// slack alone at N = 10⁶. Growth events are discovery events (a
// handful per node, ever), so the extra copies are free.
func appendChunked[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), len(s)+8)
		copy(grown, s)
		s = grown
	}
	return append(s, v)
}

// release returns a slot to the freelist for reuse.
func (a *targetArena) release(idx uint32) {
	a.slots[idx] = target{}
	a.free = append(a.free, idx)
}

// at resolves a slot index to its entry (valid until the next alloc).
func (a *targetArena) at(idx uint32) *target { return &a.slots[idx] }

// init prepares a freshly allocated slot for monitored node id. The
// default "raw" history is inlined in the target (store stays nil);
// other styles allocate their Store. An unknown style falls back to
// raw rather than dropping the monitoring duty (avmon's config
// surfaces reject one; core.Config carries the string unchecked).
func (t *target) init(id ids.ID, historyStyle string, now time.Time) {
	t.id = id
	t.discovered = now.UnixNano()
	if historyStyle != "raw" {
		if store, err := availability.NewStore(historyStyle); err == nil {
			t.store = store
		}
	}
}
