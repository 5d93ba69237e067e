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

// appendChunked appends v, growing capacity by fixed chunks of 8
// instead of append's doubling. The per-node PS and TS slices plateau
// near K ≈ 13–21 entries, where doubling strands up to 11 entries per
// slice — ~0.7 KB/node of TS slack alone at N = 10⁶. Growth events are
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

// monitor is one member of PS(x) and when it was found (elapsed since
// the node's birth, for the discovery-time figures).
type monitor struct {
	id    ids.ID
	found time.Duration
}
