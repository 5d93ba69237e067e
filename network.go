package avmon

import (
	"time"

	"avmon/internal/simnet"
)

// LatencyModel is a one-way message latency distribution for simulated
// clusters (ClusterConfig.LatencyModel). Every model declares a
// provable floor, MinLatency(), which a sharded cluster adopts as its
// conservative lookahead window — the adaptive-lookahead contract that
// keeps heterogeneous WAN runs byte-identical to serial runs. All
// draws come from the sending node's private lane stream.
type LatencyModel = simnet.LatencyModel

// LossModel is a per-message loss process for simulated clusters
// (ClusterConfig.LossModel). Models are immutable; per-sender channel
// state (e.g. the Gilbert-Elliott burst state) lives with the sending
// node and evolves only on its lane, preserving determinism at any
// shard count.
type LossModel = simnet.LossModel

// NewConstantLatency returns the default network model: every message
// takes exactly d (one way). d must be positive; it doubles as the
// sharded lookahead floor.
func NewConstantLatency(d time.Duration) (LatencyModel, error) {
	return simnet.NewConstantLatency(d)
}

// NewLognormalLatency returns a heavy-tailed WAN latency model: each
// draw is floor + a lognormal tail with the given median and shape
// sigma, clamped at cap (0 = uncapped). The floor models propagation
// delay and is the model's MinLatency — a sharded cluster uses it as
// the lookahead window, so larger floors mean wider windows and less
// synchronization.
func NewLognormalLatency(floor, median time.Duration, sigma float64, cap time.Duration) (LatencyModel, error) {
	return simnet.NewLognormalLatency(floor, median, sigma, cap)
}

// NewZoneLatency returns a zoned WAN latency model: nodes map
// deterministically onto len(base) zones (simulated index mod zone
// count), and a message from zone i to zone j takes base[i][j]
// scaled by 1 + uniform(0, jitter). MinLatency is the smallest matrix
// entry.
func NewZoneLatency(base [][]time.Duration, jitter float64) (LatencyModel, error) {
	return simnet.NewZoneLatency(base, jitter)
}

// NewBernoulliLoss returns the memoryless loss process: each message
// is dropped independently with probability p ∈ [0, 1).
func NewBernoulliLoss(p float64) (LossModel, error) {
	return simnet.NewBernoulliLoss(p)
}

// NewGilbertElliottLoss returns a bursty (Gilbert-Elliott) loss
// process: each sender's channel alternates between a good state
// (drop probability lossGood) and a bad state (lossBad ≥ lossGood),
// entering bad with probability enterBad per message and leaving with
// exitBad — mean burst length 1/exitBad messages. Correlated loss is
// what distinguishes real WAN outages from independent drops; figure
// `wan` sweeps both regimes.
func NewGilbertElliottLoss(enterBad, exitBad, lossGood, lossBad float64) (LossModel, error) {
	return simnet.NewGilbertElliottLoss(enterBad, exitBad, lossGood, lossBad)
}
