package core

import (
	"math/rand"
	"testing"
	"time"

	"avmon/internal/ids"
)

// TestIDTableMatchesMapOracle fills the open-addressing table with a
// put/overwrite mix over a small dense key space — Sim identities share
// high bits, so probe chains collide constantly — through every growth
// step, cross-checking get and len against a map after each put and
// every key (and the keys not yet put) periodically.
func TestIDTableMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pool := make([]ids.ID, 96)
	for i := range pool {
		pool[i] = ids.Sim(i)
	}
	var tab idTable
	oracle := make(map[ids.ID]uint32)
	sweep := func() {
		for _, id := range pool {
			got, ok := tab.get(id)
			want, inOracle := oracle[id]
			if ok != inOracle || got != want {
				t.Fatalf("get(%v) = %d, %v; oracle %d, %v", id, got, ok, want, inOracle)
			}
		}
	}
	for op := 0; op < 4000; op++ {
		id, val := pool[rng.Intn(len(pool))], uint32(rng.Intn(1<<16))
		tab.put(id, val)
		oracle[id] = val
		if got, ok := tab.get(id); !ok || got != val {
			t.Fatalf("get(%v) right after put(%d) = %d, %v", id, val, got, ok)
		}
		if tab.len() != len(oracle) {
			t.Fatalf("len = %d, oracle %d", tab.len(), len(oracle))
		}
		if op%97 == 0 {
			sweep()
		}
	}
	sweep()
}

func TestIDTableZeroValue(t *testing.T) {
	var tab idTable
	if _, ok := tab.get(ids.Sim(1)); ok {
		t.Error("get on empty table found a key")
	}
	if tab.len() != 0 {
		t.Errorf("len = %d, want 0", tab.len())
	}
}

func TestIDTableNoneKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("put(None) did not panic")
		}
	}()
	var tab idTable
	tab.put(ids.None, 1)
}

// TestTargetInitStyles pins the inline-raw optimization: the default
// style must not allocate a Store, every other known style must.
func TestTargetInitStyles(t *testing.T) {
	now := time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC)
	var raw target
	raw.init(ids.Sim(1), "raw")
	if raw.store != nil {
		t.Error(`init("raw") allocated a Store`)
	}
	raw.record(now, true)
	raw.record(now.Add(time.Minute), false)
	if got := raw.estimate(now.Add(time.Minute)); got != 0.5 {
		t.Errorf("raw estimate = %v, want 0.5", got)
	}
	var recent target
	recent.init(ids.Sim(2), "recent:1h")
	if recent.store == nil {
		t.Error(`init("recent:1h") left the Store nil`)
	}
}
