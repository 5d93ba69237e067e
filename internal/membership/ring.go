// Package membership implements the competing availability-monitoring
// overlay schemes that the evaluation measures AVMON against: the
// DHT/replica-set approach (Section 1) and the Broadcast discovery of
// AVCast [11] (Table 1's baseline).
//
// These exist so the evaluation can measure, not just assert, the
// failures the paper attributes to each: broadcast's O(N) join
// bandwidth, and the DHT approach's consistency violations under churn
// and its correlated (non-random) monitor sets.
package membership

import (
	"sort"

	"avmon/internal/hashing"
	"avmon/internal/ids"
)

// Ring is a Chord-like consistent-hashing ring (cf. [13, 15]): each
// node owns the point H(id) on a 64-bit circle, and the monitor set of
// a key is the K successor nodes of the key's point — the classic
// "replica set around a hashed value" that DHT-based availability
// monitoring uses.
type Ring struct {
	hasher hashing.Hasher
	k      int
	points []ringEntry // sorted by point
	index  map[ids.ID]uint64
}

type ringEntry struct {
	point uint64
	id    ids.ID
}

// NewRing builds an empty ring whose monitor sets have size k.
func NewRing(h hashing.Hasher, k int) *Ring {
	return &Ring{hasher: h, k: k, index: make(map[ids.ID]uint64)}
}

// point hashes an identity onto the ring. The pair hash is reused with
// a fixed second argument so the ring position is a pure function of
// the identity.
func (r *Ring) point(id ids.ID) uint64 {
	return r.hasher.Hash64(id, id)
}

// Len returns the current ring population.
func (r *Ring) Len() int { return len(r.points) }

// K returns the monitor-set size.
func (r *Ring) K() int { return r.k }

// Contains reports whether id is on the ring.
func (r *Ring) Contains(id ids.ID) bool {
	_, ok := r.index[id]
	return ok
}

// Add inserts a node. Adding an existing node is a no-op.
func (r *Ring) Add(id ids.ID) {
	if r.Contains(id) {
		return
	}
	p := r.point(id)
	r.index[id] = p
	i := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].point >= p ||
			(r.points[i].point == p && r.points[i].id >= id)
	})
	r.points = append(r.points, ringEntry{})
	copy(r.points[i+1:], r.points[i:])
	r.points[i] = ringEntry{point: p, id: id}
}

// Remove deletes a node. Removing an absent node is a no-op.
func (r *Ring) Remove(id ids.ID) {
	p, ok := r.index[id]
	if !ok {
		return
	}
	delete(r.index, id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].point >= p })
	for i < len(r.points) && r.points[i].id != id {
		i++
	}
	if i < len(r.points) {
		r.points = append(r.points[:i], r.points[i+1:]...)
	}
}

// MonitorsOf returns the DHT monitor set of x: the k nodes whose ring
// points follow H(x) (wrapping around), excluding x itself.
func (r *Ring) MonitorsOf(x ids.ID) []ids.ID {
	if len(r.points) == 0 {
		return nil
	}
	p := r.point(x)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].point >= p })
	out := make([]ids.ID, 0, r.k)
	for i := 0; i < len(r.points) && len(out) < r.k; i++ {
		e := r.points[(start+i)%len(r.points)]
		if e.id == x {
			continue
		}
		out = append(out, e.id)
	}
	return out
}

// ConsistencyDamage reports how many nodes' monitor sets change when
// the given node joins or leaves the ring: exactly the availability-
// history transfers the paper says DHT-based selection forces under
// churn. The ring must reflect the state BEFORE the change; apply is
// either (*Ring).Add or (*Ring).Remove.
func (r *Ring) ConsistencyDamage(id ids.ID, apply func(ids.ID), population []ids.ID) int {
	before := make(map[ids.ID][]ids.ID, len(population))
	for _, x := range population {
		if x == id {
			continue
		}
		before[x] = r.MonitorsOf(x)
	}
	apply(id)
	changed := 0
	for _, x := range population {
		if x == id {
			continue
		}
		if !equalIDs(before[x], r.MonitorsOf(x)) {
			changed++
		}
	}
	return changed
}

func equalIDs(a, b []ids.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PairCorrelation quantifies the randomness violation of condition
// 3(b): for all pairs (y, z) that co-occur in some monitor set, it
// returns the average number of DISTINCT targets whose monitor sets
// contain both. Under an uncorrelated scheme this is ≈ 1 + K²/N; on a
// DHT ring adjacent nodes co-occur in many sets, giving a much larger
// value.
func PairCorrelation(monitorSets map[ids.ID][]ids.ID) float64 {
	pairCount := make(map[[2]ids.ID]int)
	for _, set := range monitorSets {
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				a, b := set[i], set[j]
				if b < a {
					a, b = b, a
				}
				pairCount[[2]ids.ID{a, b}]++
			}
		}
	}
	if len(pairCount) == 0 {
		return 0
	}
	total := 0
	for _, c := range pairCount {
		total += c
	}
	return float64(total) / float64(len(pairCount))
}
