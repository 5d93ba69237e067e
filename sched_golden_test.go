package avmon

import (
	"testing"
	"time"
)

// TestSchedulerCountersGolden is the CI perf gate on the scheduler's
// deterministic counters at fixed small N: a SYNTH-BD population
// (births keep lane counts moving) on 4 shards and on one for 30
// simulated minutes. Steps and windows are pure functions of (config,
// seed) under the engine's determinism contract — they must never move
// because of a refactor, an allocation diet, or a data-layout change.
// Steps is the same count at every shard count, so it pins results, not
// just the grid. One shard's windows end only at control events (churn
// here) and deadlines: bounded by the lookahead again they would be a
// hundred times as many. A legitimate change to the window grid may
// move windows, in which case the constant is updated deliberately,
// with the change that moved it called out in review.
func TestSchedulerCountersGolden(t *testing.T) {
	const (
		goldenSteps      = 109027
		goldenWindows    = 10184
		goldenWindowsOne = 83
	)
	run := func(shards int) *Cluster {
		model, err := NewSYNTHBDModel(64, 0.3, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(ClusterConfig{
			N: 64, Seed: 33, Shards: shards,
			Options: NodeOptions{Forgetful: true},
		}, model)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(30 * time.Minute)
		return c
	}
	c := run(4)
	st, ok := c.SchedStats()
	if !ok {
		t.Fatal("sharded cluster reports no scheduler stats")
	}
	if c.Steps() != goldenSteps {
		t.Errorf("steps = %d, golden %d", c.Steps(), goldenSteps)
	}
	if st.Windows != goldenWindows {
		t.Errorf("windows = %d, golden %d", st.Windows, goldenWindows)
	}
	if st.Barriers != st.Windows {
		t.Errorf("barriers = %d, windows = %d; every window ends in exactly one barrier", st.Barriers, st.Windows)
	}
	lanes := 0
	for _, sh := range st.PerShard {
		lanes += sh.Lanes
	}
	if lanes != c.Size() {
		t.Errorf("per-shard lanes sum to %d, want %d", lanes, c.Size())
	}
	// One shard reports no scheduler stats (artifacts omit `windows`
	// there), so its counters are read from the engine.
	one := run(1)
	if st, ok := one.SchedStats(); ok || st.Windows != 0 {
		t.Errorf("one-shard cluster claims scheduler stats: %+v", st)
	}
	if one.Steps() != goldenSteps {
		t.Errorf("one shard: steps = %d, golden %d", one.Steps(), goldenSteps)
	}
	if w := one.eng.SchedStats().Windows; w != goldenWindowsOne {
		t.Errorf("one shard: windows = %d, golden %d", w, goldenWindowsOne)
	}
}
