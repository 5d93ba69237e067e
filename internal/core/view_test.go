package core

import (
	"math/rand"
	"slices"
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

// TestViewReshuffleInvariants: resample replaces the view with
// min(cvs, |union|) distinct members of the union it is handed — the
// sweep's CV(x) ∪ CV(w) ∪ {w} — whatever the view held before.
func TestViewReshuffleInvariants(t *testing.T) {
	f := func(seed int64, nCur, nUnion uint8) bool {
		const max = 8
		v := newView(max)
		for i := 0; i < int(nCur%12); i++ {
			v.add(ids.Sim(100 + i)) // none of them in the union
		}
		var union []ids.ID
		for i := 0; i < int(nUnion%20); i++ {
			union = append(union, ids.Sim(i))
		}
		v.resample(slices.Clone(union), rand.New(rand.NewSource(seed)))
		for i, id := range v.items {
			if !slices.Contains(union, id) || slices.Contains(v.items[:i], id) {
				return false
			}
		}
		return v.size() == min(max, len(union))
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
		var union []ids.ID
		for i := 0; i < 20; i++ {
			union = append(union, ids.Sim(i))
		}
		v.resample(union, rng)
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
