// Heterogeneous WAN network models: latency distributions with a
// provable floor, and bursty loss processes.
//
// Every model obeys the engine's lane discipline — all randomness for
// a message is drawn from the SENDER's lane stream at send time, and
// model values are immutable after construction (per-message loss
// state lives in the sender's Endpoint, not in the model), so one
// model value can safely be shared by every endpoint and by
// concurrent simulations.
//
// The adaptive-lookahead contract: a LatencyModel must never draw
// below its declared MinLatency(). That floor is what a sharded
// cluster uses as its conservative lookahead window (see
// sim.NewSharded), so a draw below it would be a determinism
// violation, not just an inaccuracy — the engine panics on it.

package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"avmon/internal/ids"
)

// LatencyModel draws one-way message delivery latencies. Implementations
// must be immutable after construction (they are shared across
// endpoints and goroutines), must draw only from the rng passed in
// (the sender's lane stream, preserving serial/sharded determinism),
// and must never return less than MinLatency().
type LatencyModel interface {
	// Latency draws the one-way delivery latency for a message from
	// src to dst. rng is the sender's lane stream; the draw count per
	// call must depend only on the model and the stream, never on
	// scheduler state.
	Latency(src, dst ids.ID, rng *rand.Rand) time.Duration
	// MinLatency returns a positive lower bound on every possible
	// draw — the provable floor. Under a sharded engine it bounds the
	// conservative lookahead window: the engine's lookahead must be
	// ≤ this floor or cross-shard posts could land inside the current
	// window.
	MinLatency() time.Duration
}

// LossModel decides whether a message is lost in transit.
// Implementations must be immutable after construction; all evolving
// state lives in the per-sender LossState, and all randomness comes
// from the rng passed in (the sender's lane stream), so loss decisions
// are deterministic per lane at any shard count.
type LossModel interface {
	// Drop reports whether the message is lost, advancing st (owned by
	// the sending endpoint, touched only on its lane).
	Drop(st *LossState, rng *rand.Rand) bool
}

// LossState is the per-sender evolving state of a LossModel (e.g. the
// Gilbert-Elliott good/bad channel state). It is owned by the sending
// endpoint's lane: only Drop mutates it, and Drop only runs inside
// Send on the sender's lane.
type LossState struct {
	// Bad reports whether the sender's channel is currently in the
	// lossy burst state (Gilbert-Elliott); Bernoulli loss ignores it.
	Bad bool
}

// --- latency models ---------------------------------------------------

// constantLatency is the degenerate model: every message takes exactly
// d, so the floor equals the draw and no randomness is consumed.
type constantLatency struct {
	d time.Duration
}

// NewConstantLatency returns the model behind the default network: a
// fixed one-way latency d for every link. d must be positive — it is
// both every draw and the sharded lookahead floor.
func NewConstantLatency(d time.Duration) (LatencyModel, error) {
	if d <= 0 {
		return nil, fmt.Errorf("simnet: constant latency must be positive, got %v", d)
	}
	return constantLatency{d: d}, nil
}

// Latency implements LatencyModel; it consumes no randomness.
func (c constantLatency) Latency(_, _ ids.ID, _ *rand.Rand) time.Duration { return c.d }

// MinLatency implements LatencyModel: the constant itself.
func (c constantLatency) MinLatency() time.Duration { return c.d }

// lognormalLatency models heavy-tailed WAN latency: a fixed floor
// (propagation delay) plus a lognormally distributed tail (queueing),
// optionally clamped at a cap.
type lognormalLatency struct {
	floor    time.Duration
	medianNs float64 // median of the tail above the floor, in ns
	sigma    float64
	cap      time.Duration // 0 = uncapped
}

// NewLognormalLatency returns a heavy-tailed latency model: every draw
// is floor + L where L is lognormal with the given median (so the
// model's overall median one-way latency is floor+median) and shape
// sigma; draws above cap are clamped to it (cap 0 disables clamping).
// floor must be positive (it is the sharded lookahead floor), median
// must exceed zero, sigma must be positive, and a non-zero cap must be
// at least floor+median.
func NewLognormalLatency(floor, median time.Duration, sigma float64, cap time.Duration) (LatencyModel, error) {
	switch {
	case floor <= 0:
		return nil, fmt.Errorf("simnet: lognormal floor must be positive, got %v", floor)
	case median <= 0:
		return nil, fmt.Errorf("simnet: lognormal median must be positive, got %v", median)
	case sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0):
		return nil, fmt.Errorf("simnet: lognormal sigma must be a positive finite number, got %v", sigma)
	case cap != 0 && cap < floor+median:
		return nil, fmt.Errorf("simnet: lognormal cap %v below floor+median %v", cap, floor+median)
	}
	return lognormalLatency{
		floor:    floor,
		medianNs: float64(median),
		sigma:    sigma,
		cap:      cap,
	}, nil
}

// Latency implements LatencyModel: one normal draw from the sender's
// lane stream, exponentiated around the tail median.
func (l lognormalLatency) Latency(_, _ ids.ID, rng *rand.Rand) time.Duration {
	tail := l.medianNs * math.Exp(l.sigma*rng.NormFloat64())
	d := l.floor + time.Duration(tail)
	if d < l.floor {
		// Guard against float overflow wrapping the conversion.
		d = l.floor
	}
	if l.cap != 0 && d > l.cap {
		d = l.cap
	}
	return d
}

// MinLatency implements LatencyModel: the configured floor (the
// lognormal tail is strictly positive).
func (l lognormalLatency) MinLatency() time.Duration { return l.floor }

// zoneLatency models a federation of zones (data centers, continents):
// each node belongs to a zone, and the one-way base latency between a
// pair of nodes is a zone-to-zone matrix entry plus optional uniform
// multiplicative jitter.
type zoneLatency struct {
	base   [][]time.Duration
	jitter float64
	min    time.Duration
}

// NewZoneLatency returns a per-link latency model over a square
// zone-to-zone base matrix: base[i][j] is the one-way latency from
// zone i to zone j, and every draw is base·(1+u·jitter) with u uniform
// in [0,1). All matrix entries must be positive and the matrix square;
// jitter must be ≥ 0. Nodes map to zones deterministically from their
// identity (simulated index mod zone count), so zone assignment — like
// every latency draw — is independent of scheduler interleaving.
// MinLatency is the smallest matrix entry.
func NewZoneLatency(base [][]time.Duration, jitter float64) (LatencyModel, error) {
	if len(base) == 0 {
		return nil, fmt.Errorf("simnet: zone matrix is empty")
	}
	if jitter < 0 || math.IsNaN(jitter) || math.IsInf(jitter, 0) {
		return nil, fmt.Errorf("simnet: zone jitter must be a finite non-negative number, got %v", jitter)
	}
	min := time.Duration(math.MaxInt64)
	m := make([][]time.Duration, len(base))
	for i, row := range base {
		if len(row) != len(base) {
			return nil, fmt.Errorf("simnet: zone matrix row %d has %d entries, want %d", i, len(row), len(base))
		}
		m[i] = append([]time.Duration(nil), row...)
		for j, d := range row {
			if d <= 0 {
				return nil, fmt.Errorf("simnet: zone matrix entry [%d][%d] = %v must be positive", i, j, d)
			}
			if d < min {
				min = d
			}
		}
	}
	return zoneLatency{base: m, jitter: jitter, min: min}, nil
}

// zoneOf maps an identity to its zone: simulated nodes by index modulo
// the zone count (stable, scheduler-independent), other identities by
// a splitmix64 scramble of the raw id.
func (z zoneLatency) zoneOf(id ids.ID) int {
	if idx, ok := ids.SimIndex(id); ok {
		return idx % len(z.base)
	}
	w := uint64(id) * 0x9E3779B97F4A7C15
	w = (w ^ (w >> 30)) * 0xBF58476D1CE4E5B9
	return int((w ^ (w >> 27)) % uint64(len(z.base)))
}

// Latency implements LatencyModel: the zone-pair base entry plus one
// uniform jitter draw from the sender's lane stream (no draw when
// jitter is zero).
func (z zoneLatency) Latency(src, dst ids.ID, rng *rand.Rand) time.Duration {
	d := z.base[z.zoneOf(src)][z.zoneOf(dst)]
	if z.jitter > 0 {
		total := float64(d) * (1 + z.jitter*rng.Float64())
		if total > float64(1<<62) {
			// Guard against float overflow wrapping the int64
			// conversion below the floor (absurd jitter values are
			// accepted by the constructor; the floor contract is not
			// theirs to break).
			return time.Duration(1 << 62)
		}
		d = time.Duration(total)
	}
	return d
}

// MinLatency implements LatencyModel: the smallest matrix entry
// (jitter only adds).
func (z zoneLatency) MinLatency() time.Duration { return z.min }

// --- loss models ------------------------------------------------------

// bernoulliLoss drops each message independently with probability p.
type bernoulliLoss struct {
	p float64
}

// NewBernoulliLoss returns the memoryless loss model: each message is
// dropped independently with probability p ∈ [0, 1). One uniform draw
// per message from the sender's lane stream.
func NewBernoulliLoss(p float64) (LossModel, error) {
	if p < 0 || p >= 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("simnet: loss probability %v outside [0, 1)", p)
	}
	return bernoulliLoss{p: p}, nil
}

// Drop implements LossModel: one uniform draw against p; the state is
// unused.
func (b bernoulliLoss) Drop(_ *LossState, rng *rand.Rand) bool {
	return rng.Float64() < b.p
}

// gilbertElliott is the classic two-state burst-loss channel: a good
// state with low loss and a bad state with high loss, with per-message
// transition probabilities between them. The chain state is per
// SENDER (its access link), held in the endpoint's LossState.
type gilbertElliott struct {
	enterBad float64 // P(good → bad) per message
	exitBad  float64 // P(bad → good) per message
	lossGood float64 // drop probability while good
	lossBad  float64 // drop probability while bad
}

// NewGilbertElliottLoss returns a bursty loss model (Gilbert-Elliott):
// the sender's channel alternates between a good state (drop
// probability lossGood) and a bad state (lossBad), entering the bad
// state with probability enterBad per message and leaving it with
// probability exitBad. Mean burst length is 1/exitBad messages, and
// the stationary loss rate is
//
//	(enterBad·lossBad + exitBad·lossGood) / (enterBad + exitBad).
//
// enterBad and exitBad must be in (0, 1]; lossGood and lossBad in
// [0, 1] with lossBad ≥ lossGood. The chain advances exactly one
// transition draw plus (when the state's drop probability is neither
// 0 nor 1) one loss draw per message, all on the sender's lane stream.
func NewGilbertElliottLoss(enterBad, exitBad, lossGood, lossBad float64) (LossModel, error) {
	switch {
	case !(enterBad > 0 && enterBad <= 1):
		return nil, fmt.Errorf("simnet: gilbert-elliott enterBad %v outside (0, 1]", enterBad)
	case !(exitBad > 0 && exitBad <= 1):
		return nil, fmt.Errorf("simnet: gilbert-elliott exitBad %v outside (0, 1]", exitBad)
	case !(lossGood >= 0 && lossGood <= 1):
		return nil, fmt.Errorf("simnet: gilbert-elliott lossGood %v outside [0, 1]", lossGood)
	case !(lossBad >= 0 && lossBad <= 1):
		return nil, fmt.Errorf("simnet: gilbert-elliott lossBad %v outside [0, 1]", lossBad)
	case lossBad < lossGood:
		return nil, fmt.Errorf("simnet: gilbert-elliott lossBad %v below lossGood %v", lossBad, lossGood)
	}
	return gilbertElliott{enterBad: enterBad, exitBad: exitBad, lossGood: lossGood, lossBad: lossBad}, nil
}

// Drop implements LossModel: advance the sender's two-state chain,
// then draw against the current state's loss probability.
func (g gilbertElliott) Drop(st *LossState, rng *rand.Rand) bool {
	if st.Bad {
		if rng.Float64() < g.exitBad {
			st.Bad = false
		}
	} else if rng.Float64() < g.enterBad {
		st.Bad = true
	}
	p := g.lossGood
	if st.Bad {
		p = g.lossBad
	}
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return rng.Float64() < p
	}
}
