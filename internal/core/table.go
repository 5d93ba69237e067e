package core

import (
	"time"

	"avmon/internal/ids"
)

// This file holds the storage shapes of the node's PS and TS (see
// DESIGN.md, "Memory diet"). The consistency condition is a fixed
// relation over identities, so both sets only ever grow: each is kept
// in discovery order in slices of values (Node.ps; TS as the aligned
// columns Node.tsIDs and Node.ts) with no per-entry heap object and no
// index beside them: a set plateaus near K entries, so a lookup scans K
// contiguous identities instead of keeping a hash table per set per
// node.

// appendExact appends v into a copy of exactly one more entry, so the
// per-node PS and TS slices always have cap == len: they plateau near
// K entries, where append's doubling strands up to half the slice and
// even growth by chunks of 8 left ≈ 200 B of slack per node.
// Growth events are discovery events (about 2K per node, ever), each
// one small allocation (DESIGN.md, "Memory diet", prices them).
func appendExact[T any](s []T, v T) []T {
	grown := make([]T, len(s), len(s)+1)
	copy(grown, s)
	return append(grown, v)
}

// monitor is one member of PS(x) and when it was found (elapsed since
// the node's birth, for the discovery-time figures).
type monitor struct {
	id    ids.ID
	found time.Duration
}
