package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"avmon/internal/ids"
)

// newView returns an empty view bounded at max entries, over storage of
// its own (Node.Init's allocating branch).
func newView(max int) *view { return &view{items: make([]ids.ID, 0, max)} }

func TestViewAddRemoveContains(t *testing.T) {
	v := newView(3)
	a, b, c, d := ids.Sim(1), ids.Sim(2), ids.Sim(3), ids.Sim(4)
	if !v.add(a) || !v.add(b) || !v.add(c) {
		t.Fatal("adds below capacity failed")
	}
	if v.add(d) {
		t.Error("add above capacity succeeded")
	}
	if v.add(a) {
		t.Error("duplicate add succeeded")
	}
	if v.add(ids.None) {
		t.Error("None add succeeded")
	}
	if !v.contains(b) || v.contains(d) {
		t.Error("contains wrong")
	}
	if !v.remove(b) {
		t.Error("remove of member failed")
	}
	if v.remove(b) {
		t.Error("double remove succeeded")
	}
	if v.size() != 2 {
		t.Errorf("size = %d, want 2", v.size())
	}
	if !v.add(d) {
		t.Error("add after remove failed")
	}
}

func TestViewRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := newView(10)
	if !v.random(rng).IsNone() {
		t.Error("random on empty view not None")
	}
	for i := 0; i < 5; i++ {
		v.add(ids.Sim(i))
	}
	seen := make(map[ids.ID]bool)
	for i := 0; i < 200; i++ {
		id := v.random(rng)
		if !v.contains(id) {
			t.Fatal("random returned a non-member")
		}
		seen[id] = true
	}
	if len(seen) != 5 {
		t.Errorf("random covered %d of 5 members", len(seen))
	}
}

func TestViewAddEvict(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := newView(3)
	for i := 0; i < 3; i++ {
		v.add(ids.Sim(i))
	}
	newcomer := ids.Sim(99)
	if !v.addEvict(newcomer, rng) {
		t.Fatal("addEvict on full view failed")
	}
	if !v.contains(newcomer) {
		t.Error("evicting add did not insert the newcomer")
	}
	if v.size() != 3 {
		t.Errorf("size after evict = %d, want 3", v.size())
	}
	if v.addEvict(newcomer, rng) {
		t.Error("addEvict of existing member reported change")
	}
}

// reshuffleByScan is the reshuffle as Figure 2 states it, and as the
// node ran it before the sweep's cross-membership flags supplied the
// union: CV(x) ∪ CV(w) ∪ {w} minus self, deduplicated by linear scans
// in that order, then resampled. The sweep's flag-built union must
// equal this one (FuzzSweepEquivalence).
func reshuffleByScan(v *view, fetched []ids.ID, w, self ids.ID, rng *rand.Rand) {
	var union []ids.ID
	add := func(id ids.ID) {
		if id.IsNone() || id == self {
			return
		}
		for _, e := range union {
			if e == id {
				return
			}
		}
		union = append(union, id)
	}
	for _, id := range v.items {
		add(id)
	}
	for _, id := range fetched {
		add(id)
	}
	add(w)
	v.resample(union, rng)
}

func TestViewReshuffleInvariants(t *testing.T) {
	f := func(seed int64, nCur, nFetched uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const max = 8
		self := ids.Sim(1000)
		w := ids.Sim(2000)
		v := newView(max)
		for i := 0; i < int(nCur%12); i++ {
			v.add(ids.Sim(i))
		}
		fetched := make([]ids.ID, 0, nFetched%12)
		for i := 0; i < int(nFetched%12); i++ {
			fetched = append(fetched, ids.Sim(100+rng.Intn(10)))
		}
		// Poison the fetched view with self: reshuffle must drop it.
		fetched = append(fetched, self)
		union := make(map[ids.ID]struct{})
		for _, id := range v.snapshot() {
			union[id] = struct{}{}
		}
		for _, id := range fetched {
			union[id] = struct{}{}
		}
		union[w] = struct{}{}
		delete(union, self)

		reshuffleByScan(v, fetched, w, self, rng)

		if v.size() > max {
			return false
		}
		if v.contains(self) {
			return false
		}
		seen := make(map[ids.ID]bool)
		for _, id := range v.snapshot() {
			if seen[id] {
				return false // duplicate
			}
			seen[id] = true
			if _, ok := union[id]; !ok {
				return false // invented an entry
			}
		}
		// If the union was small enough, everything must be kept.
		if len(union) <= max && v.size() != len(union) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestViewReshuffleUniform(t *testing.T) {
	// Over many reshuffles from a 20-element union into 5 slots, each
	// element should be retained ≈ 25% of the time.
	rng := rand.New(rand.NewSource(3))
	counts := make(map[ids.ID]int)
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		v := newView(5)
		var fetched []ids.ID
		for i := 0; i < 19; i++ {
			fetched = append(fetched, ids.Sim(i))
		}
		reshuffleByScan(v, fetched, ids.Sim(19), ids.Sim(999), rng)
		for _, id := range v.snapshot() {
			counts[id]++
		}
	}
	want := float64(trials) * 5 / 20
	for i := 0; i < 20; i++ {
		got := float64(counts[ids.Sim(i)])
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("element %d retained %v times, want ≈ %v", i, got, want)
		}
	}
}

func TestViewClear(t *testing.T) {
	v := newView(4)
	for i := 0; i < 4; i++ {
		v.add(ids.Sim(i))
	}
	v.clear()
	if v.size() != 0 || v.contains(ids.Sim(0)) {
		t.Error("clear left state behind")
	}
	if !v.add(ids.Sim(7)) {
		t.Error("add after clear failed")
	}
}
