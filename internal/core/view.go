package core

import "avmon/internal/ids"

// view is the coarse view CV(x): a bounded random subset of other
// nodes with uniform random pick. Membership is a flat slice with
// linear search: cvs = 4·N^(1/4) stays below ~100 even at N = 10^6,
// where a scan of a contiguous ID array beats a map lookup — and
// dropping the map halves the per-node footprint that dominated
// large-N runs (a 71-entry map costs ~3 KB/node ≈ 300 MB at 10^5).
//
// The bound cvs is the capacity of items: the owner hands the view
// storage of exactly that many entries (Node.Init) and no operation
// grows it, so a simulated node's view lives wherever its owner put it.
type view struct {
	items []ids.ID
}

func (v *view) size() int { return len(v.items) }

// indexOf returns id's position, or -1.
func (v *view) indexOf(id ids.ID) int {
	for i, e := range v.items {
		if e == id {
			return i
		}
	}
	return -1
}

func (v *view) contains(id ids.ID) bool { return v.indexOf(id) >= 0 }

// add inserts id if absent and below capacity; it reports whether the
// view changed.
func (v *view) add(id ids.ID) bool {
	if id.IsNone() || len(v.items) >= cap(v.items) || v.contains(id) {
		return false
	}
	v.items = append(v.items, id)
	return true
}

// addEvict inserts id, evicting a uniformly random entry if the view
// is full (used by PR2). It reports whether the view changed.
func (v *view) addEvict(id ids.ID, rng Rand) bool {
	if id.IsNone() || v.contains(id) {
		return false
	}
	v.appendEvict(id, rng)
	return true
}

// appendEvict is addEvict for a caller that has already established id
// is a real identity the view does not hold: no scan. id takes the last
// position.
func (v *view) appendEvict(id ids.ID, rng Rand) {
	if len(v.items) >= cap(v.items) {
		v.removeAt(rng.Intn(len(v.items)))
	}
	v.items = append(v.items, id)
}

func (v *view) remove(id ids.ID) bool {
	i := v.indexOf(id)
	if i < 0 {
		return false
	}
	v.removeAt(i)
	return true
}

func (v *view) removeAt(i int) {
	last := len(v.items) - 1
	v.items[i] = v.items[last]
	v.items = v.items[:last]
}

// random returns a uniformly random member, or None if empty.
func (v *view) random(rng Rand) ids.ID {
	if len(v.items) == 0 {
		return ids.None
	}
	return v.items[rng.Intn(len(v.items))]
}

// snapshot returns a copy of the membership.
func (v *view) snapshot() []ids.ID {
	out := make([]ids.ID, len(v.items))
	copy(out, v.items)
	return out
}

// appendTo appends the membership to dst and returns it; an
// allocation-free snapshot for hot paths that own a scratch buffer.
func (v *view) appendTo(dst []ids.ID) []ids.ID {
	return append(dst, v.items...)
}

func (v *view) clear() { v.items = v.items[:0] }

// resample replaces the view with up to max entries drawn uniformly at
// random from union — CV(x) ∪ CV(w) ∪ {w} minus self, which the caller
// has already deduplicated (Figure 2, last two lines). union is
// permuted in place.
func (v *view) resample(union []ids.ID, rng Rand) {
	// Partial Fisher-Yates: choose max entries uniformly at random.
	k := cap(v.items)
	if k > len(union) {
		k = len(union)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(union)-i)
		union[i], union[j] = union[j], union[i]
	}
	v.items = append(v.items[:0], union[:k]...)
}
