package membership

import (
	"avmon/internal/core"
	"avmon/internal/ids"
)

// BroadcastDiscovery models the AVCast [11] approach the paper labels
// "Broadcast" (Table 1): the selection scheme is the same consistent
// hash condition as AVMON's, but discovery floods every join to all
// alive nodes, which then each check the condition against the joiner.
// Discovery is immediate (O(log N) dissemination, one-time), at O(N)
// join bandwidth.
type BroadcastDiscovery struct {
	scheme core.SelectionScheme
	alive  map[ids.ID]struct{}

	// Counters for the Table 1 comparison.
	MessagesSent uint64 // broadcast messages emitted
	BytesSent    uint64 // at 8B per message, the paper's accounting
	HashChecks   uint64 // condition evaluations

	// Discovered monitoring relationships: ps[x] = set of monitors.
	ps map[ids.ID]map[ids.ID]struct{}
}

// NewBroadcastDiscovery builds an empty broadcast-discovery system
// over the given selection scheme.
func NewBroadcastDiscovery(scheme core.SelectionScheme) *BroadcastDiscovery {
	return &BroadcastDiscovery{
		scheme: scheme,
		alive:  make(map[ids.ID]struct{}),
		ps:     make(map[ids.ID]map[ids.ID]struct{}),
	}
}

// Join floods x's arrival to every alive node; each receiver evaluates
// the consistency condition in both directions and both sides learn
// any relationship instantly.
func (b *BroadcastDiscovery) Join(x ids.ID) {
	for y := range b.alive {
		b.MessagesSent++
		b.BytesSent += 8
		b.HashChecks += 2
		if b.scheme.Related(y, x) {
			b.record(y, x)
		}
		if b.scheme.Related(x, y) {
			b.record(x, y)
		}
	}
	b.alive[x] = struct{}{}
}

// Leave removes x from the alive set (relationships persist, as in
// AVMON).
func (b *BroadcastDiscovery) Leave(x ids.ID) { delete(b.alive, x) }

func (b *BroadcastDiscovery) record(monitor, target ids.ID) {
	set, ok := b.ps[target]
	if !ok {
		set = make(map[ids.ID]struct{})
		b.ps[target] = set
	}
	set[monitor] = struct{}{}
}

// MonitorsOf returns the discovered PS(x).
func (b *BroadcastDiscovery) MonitorsOf(x ids.ID) []ids.ID {
	out := make([]ids.ID, 0, len(b.ps[x]))
	for id := range b.ps[x] {
		out = append(out, id)
	}
	ids.Sort(out)
	return out
}

// Alive returns the current population size.
func (b *BroadcastDiscovery) Alive() int { return len(b.alive) }
