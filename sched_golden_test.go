package avmon

import (
	"testing"
	"time"
)

// TestSchedulerCountersGolden is the CI perf gate on the sharded
// scheduler's deterministic counters at fixed small N: a SYNTH-BD
// population (births keep lane counts moving) on 4 shards for 30
// simulated minutes. Steps and windows are pure functions of (config,
// seed) under the engine's determinism contract — they must never move
// because of a refactor, an allocation diet, or a data-layout change.
// Steps is also the serial engine's count, so it pins results, not just
// the grid. A legitimate change to the window grid may move windows, in
// which case the constant is updated deliberately, with the change that
// moved it called out in review.
func TestSchedulerCountersGolden(t *testing.T) {
	const (
		goldenSteps   = 109027
		goldenWindows = 10184
	)
	model, err := NewSYNTHBDModel(64, 0.3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		N: 64, Seed: 33, Shards: 4,
		Options: NodeOptions{Forgetful: true},
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(30 * time.Minute)
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
	if _, ok := statCluster(t, 10, 1, NodeOptions{}).SchedStats(); ok {
		t.Error("serial cluster claims scheduler stats")
	}
}
