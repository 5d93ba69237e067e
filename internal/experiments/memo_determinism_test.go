package experiments

import (
	"reflect"
	"testing"
	"time"

	"avmon"
)

// TestMemoizedSelectorChangesNoTable is the determinism contract of
// the hash memo: a cluster running the paper's MD5 hash with the
// memoizing selector (the simulation default) must produce state
// identical — node by node, counter by counter — to the same cluster
// with memoization disabled. Every experiment table is a function of
// these per-node stats, so equality here proves no table can change.
func TestMemoizedSelectorChangesNoTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	o := Options{Scale: 0.01, Seed: 11, Parallelism: 2}.withDefaults()
	memoized := synthScenario(o, modelSYNTH, 50, 30*time.Minute)
	memoized.opts.Hash = avmon.HashMD5
	plain := memoized
	plain.opts.NoHashMemo = true

	// One seed group: both variants run against the same churn
	// realization, so any divergence is the memo's doing.
	outs, err := runAllPaired(o, &sweep{group: oneRealization,
		scens: func(Options) []scenario { return []scenario{memoized, plain} }})
	if err != nil {
		t.Fatal(err)
	}
	a, b := outs[0].c, outs[1].c
	if a.Size() != b.Size() {
		t.Fatalf("population diverged: %d vs %d nodes", a.Size(), b.Size())
	}
	for i := 0; i < a.Size(); i++ {
		sa, sb := a.Stats(i), b.Stats(i)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("node %d stats diverged with memoization:\nmemo:  %+v\nplain: %+v", i, sa, sb)
		}
	}
}
