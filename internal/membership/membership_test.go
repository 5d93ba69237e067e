package membership

import (
	"math/rand"
	"testing"
	"testing/quick"

	"avmon/internal/hashing"
	"avmon/internal/ids"
)

func newTestRing(t *testing.T, k, n int) (*Ring, []ids.ID) {
	t.Helper()
	r := NewRing(hashing.FastHasher{}, k)
	pop := make([]ids.ID, n)
	for i := range pop {
		pop[i] = ids.Sim(i)
		r.Add(pop[i])
	}
	return r, pop
}

func TestRingAddRemove(t *testing.T) {
	r, pop := newTestRing(t, 3, 10)
	if r.Len() != 10 {
		t.Fatalf("Len = %d, want 10", r.Len())
	}
	r.Add(pop[0]) // duplicate
	if r.Len() != 10 {
		t.Error("duplicate Add changed the ring")
	}
	r.Remove(pop[3])
	if r.Len() != 9 || r.Contains(pop[3]) {
		t.Error("Remove failed")
	}
	r.Remove(pop[3]) // absent
	if r.Len() != 9 {
		t.Error("absent Remove changed the ring")
	}
}

func TestRingMonitorsProperties(t *testing.T) {
	r, pop := newTestRing(t, 4, 50)
	for _, x := range pop {
		mons := r.MonitorsOf(x)
		if len(mons) != 4 {
			t.Fatalf("MonitorsOf(%v) has %d entries, want 4", x, len(mons))
		}
		seen := make(map[ids.ID]bool)
		for _, m := range mons {
			if m == x {
				t.Fatalf("node %v monitors itself", x)
			}
			if seen[m] {
				t.Fatalf("duplicate monitor for %v", x)
			}
			seen[m] = true
			if !r.Contains(m) {
				t.Fatalf("monitor %v not on ring", m)
			}
		}
	}
}

func TestRingMonitorsDeterministic(t *testing.T) {
	r1, pop := newTestRing(t, 3, 30)
	r2, _ := newTestRing(t, 3, 30)
	for _, x := range pop {
		if !equalIDs(r1.MonitorsOf(x), r2.MonitorsOf(x)) {
			t.Fatalf("monitor sets differ between identical rings for %v", x)
		}
	}
}

func TestRingSuccessorOrderIsSorted(t *testing.T) {
	// Property: after any add/remove interleaving, the internal point
	// slice stays sorted (checked via successor queries succeeding).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRing(hashing.FastHasher{}, 2)
		present := make(map[ids.ID]bool)
		for op := 0; op < 100; op++ {
			id := ids.Sim(rng.Intn(30))
			if rng.Intn(2) == 0 {
				r.Add(id)
				present[id] = true
			} else {
				r.Remove(id)
				delete(present, id)
			}
		}
		want := 0
		for range present {
			want++
		}
		if r.Len() != want {
			return false
		}
		for i := 1; i < len(r.points); i++ {
			if r.points[i].point < r.points[i-1].point {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRingSmallPopulation(t *testing.T) {
	r := NewRing(hashing.FastHasher{}, 5)
	if got := r.MonitorsOf(ids.Sim(1)); got != nil {
		t.Errorf("empty ring MonitorsOf = %v, want nil", got)
	}
	r.Add(ids.Sim(1))
	if got := r.MonitorsOf(ids.Sim(1)); len(got) != 0 {
		t.Errorf("self-only ring MonitorsOf = %v, want empty", got)
	}
	r.Add(ids.Sim(2))
	if got := r.MonitorsOf(ids.Sim(1)); len(got) != 1 || got[0] != ids.Sim(2) {
		t.Errorf("two-node ring MonitorsOf = %v", got)
	}
}

func TestDHTConsistencyViolatedUnderChurn(t *testing.T) {
	// The paper's core criticism: a single join/leave changes other
	// nodes' monitor sets. Measure it.
	r, pop := newTestRing(t, 4, 100)
	newcomer := ids.Sim(1000)
	damage := r.ConsistencyDamage(newcomer, r.Add, pop)
	if damage == 0 {
		t.Error("join caused zero monitor-set changes; DHT consistency violation not reproduced")
	}
	// A leave also damages consistency.
	damage = r.ConsistencyDamage(pop[10], r.Remove, pop)
	if damage == 0 {
		t.Error("leave caused zero monitor-set changes")
	}
}

func TestDHTCorrelationExceedsRandom(t *testing.T) {
	// Randomness condition 3(b): DHT monitor sets are correlated —
	// ring-adjacent nodes co-occur across many targets. Compare the
	// pair-correlation statistic against AVMON's hash selection on the
	// same population.
	const (
		n = 300
		k = 5
	)
	r, pop := newTestRing(t, k, n)
	dhtSets := make(map[ids.ID][]ids.ID, n)
	for _, x := range pop {
		dhtSets[x] = r.MonitorsOf(x)
	}
	sel, err := hashing.NewSelector(hashing.FastHasher{}, k, n)
	if err != nil {
		t.Fatal(err)
	}
	avmonSets := make(map[ids.ID][]ids.ID, n)
	for _, x := range pop {
		var set []ids.ID
		for _, y := range pop {
			if sel.Related(y, x) {
				set = append(set, y)
			}
		}
		avmonSets[x] = set
	}
	dht := PairCorrelation(dhtSets)
	avmon := PairCorrelation(avmonSets)
	if dht < 2*avmon {
		t.Errorf("DHT pair correlation %.2f not clearly above AVMON's %.2f", dht, avmon)
	}
	if avmon > 1.5 {
		t.Errorf("AVMON pair correlation %.2f too high; selection not uncorrelated", avmon)
	}
}

func TestBroadcastDiscovery(t *testing.T) {
	sel, err := hashing.NewSelector(hashing.FastHasher{}, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroadcastDiscovery(sel)
	for i := 0; i < 100; i++ {
		b.Join(ids.Sim(i))
	}
	if b.Alive() != 100 {
		t.Errorf("Alive = %d, want 100", b.Alive())
	}
	// Join i broadcasts to i existing nodes: total = 0+1+...+99.
	if want := uint64(99 * 100 / 2); b.MessagesSent != want {
		t.Errorf("MessagesSent = %d, want %d (O(N) per join)", b.MessagesSent, want)
	}
	if b.HashChecks != 2*b.MessagesSent {
		t.Errorf("HashChecks = %d, want %d", b.HashChecks, 2*b.MessagesSent)
	}
	// Discovery is complete and immediate: every related pair among
	// the population is known.
	missing := 0
	for i := 0; i < 100; i++ {
		x := ids.Sim(i)
		got := make(map[ids.ID]bool)
		for _, m := range b.MonitorsOf(x) {
			got[m] = true
		}
		for j := 0; j < 100; j++ {
			y := ids.Sim(j)
			if y != x && sel.Related(y, x) && !got[y] {
				missing++
			}
		}
	}
	if missing != 0 {
		t.Errorf("broadcast discovery missed %d relationships", missing)
	}
	b.Leave(ids.Sim(0))
	if b.Alive() != 99 {
		t.Error("Leave did not shrink population")
	}
}
