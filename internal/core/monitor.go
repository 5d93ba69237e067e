package core

import (
	"time"

	"avmon/internal/availability"
	"avmon/internal/ids"
)

// target tracks one monitored node u ∈ TS(x): its availability
// history, outstanding probe, and the session bookkeeping that drives
// forgetful pinging (Section 3.3). Targets live by value in Node.ts, in
// discovery order, and are never dropped — forgetful pinging probes a
// long-absent target less often instead. Timestamps are UnixNano
// integers rather than time.Time so an entry is pointer-free under the
// default raw history (every simulated and real instant is far past
// 1970, so the zero value still means "never").
type target struct {
	id ids.ID

	// Availability history. The default "raw" style is inlined (store
	// stays nil) so the common configuration carries no per-target heap
	// object; windowed/aged styles hold their Store here.
	raw   availability.Raw
	store availability.Store

	awaitingSeq uint64 // outstanding MON-PING sequence (0 = none)
	awaitingAt  int64  // UnixNano

	lastAck      int64         // UnixNano
	sessionStart int64         // UnixNano: start of the currently observed session
	downSince    int64         // UnixNano
	lastSession  time.Duration // most recent completed observed session ts(u)

	// Activity counters are uint32 — a target accrues at most one ping
	// per period, so 2³² covers millennia of simulated time — and sit
	// with the flags at the tail of the struct so the whole entry packs
	// into 104 bytes (TS holds ~K ≈ 21 of these per node at N = 10⁶;
	// every 8 bytes here is 160 MB there).
	pingsSent       uint32
	acks            uint32
	pingsSaved      uint32 // pings skipped by the forgetful optimization
	pingsSuppressed uint32 // pings withheld by a colluding monitor

	everAcked bool
	down      bool
}

// record folds one ping outcome into the target's history.
func (t *target) record(at time.Time, up bool) {
	if t.store != nil {
		t.store.Record(at, up)
		return
	}
	t.raw.Record(at, up)
}

// estimate returns the target's current availability estimate.
func (t *target) estimate(now time.Time) float64 {
	if t.store != nil {
		return t.store.Estimate(now)
	}
	return t.raw.Estimate(now)
}

// samples returns the number of recorded (retained) outcomes.
func (t *target) samples() int {
	if t.store != nil {
		return t.store.Samples()
	}
	return t.raw.Samples()
}

// MonitorTick runs one monitoring period TA: it resolves last round's
// outstanding probes as losses, then sends this round's monitoring
// pings, applying forgetful pinging when enabled. The owner invokes it
// once every MonitorPeriod while the node is alive.
func (n *Node) MonitorTick(now time.Time) {
	if !n.alive {
		return
	}
	nowNanos := now.UnixNano()
	for i := range n.ts {
		t := &n.ts[i]
		// 1. An unanswered probe from a previous round is a "down"
		// observation.
		if t.awaitingSeq != 0 {
			t.awaitingSeq = 0
			t.record(now, false)
			if !t.down {
				t.down = true
				t.downSince = t.awaitingAt
				if t.everAcked {
					t.lastSession = time.Duration(t.lastAck - t.sessionStart)
				}
			}
		}
		// 2. A colluding monitor drops its duty towards victims
		// entirely (the eclipse half of the collusion attack): no
		// probe, so no observation and no availability history.
		if n.cfg.SuppressMonPing != nil && n.cfg.SuppressMonPing(t.id) {
			t.pingsSuppressed++
			continue
		}
		// 3. Decide whether to probe this round.
		if n.cfg.Forgetful && t.down {
			downFor := time.Duration(nowNanos - t.downSince)
			if downFor > n.cfg.ForgetfulTau {
				ts := t.lastSession
				if ts <= 0 {
					// Never observed a full session: use one
					// monitoring period as the session floor.
					ts = n.cfg.MonitorPeriod
				}
				p := n.cfg.ForgetfulC * float64(ts) / float64(ts+downFor)
				if p > 1 {
					p = 1
				}
				if n.cfg.Rand.Float64() >= p {
					t.pingsSaved++
					continue
				}
			}
		}
		// 4. Probe.
		t.awaitingSeq = n.nextSeq()
		t.awaitingAt = nowNanos
		t.pingsSent++
		msg := n.newMsg()
		msg.Type = MsgMonPing
		msg.Seq = t.awaitingSeq
		n.send(t.id, msg)
	}
}

// handleMonAck folds a monitoring acknowledgment into the target's
// history.
func (n *Node) handleMonAck(from ids.ID, seq uint64, now time.Time) {
	i, ok := n.tsIdx.get(from)
	if !ok {
		return
	}
	t := &n.ts[i]
	if seq != t.awaitingSeq {
		return
	}
	t.awaitingSeq = 0
	t.acks++
	t.record(now, true)
	if t.down || !t.everAcked {
		t.sessionStart = now.UnixNano()
		t.down = false
	}
	t.everAcked = true
	t.lastAck = now.UnixNano()
}

// EstimateOf returns this node's availability estimate for a node it
// monitors, and whether it monitors it at all. An overreporting
// monitor (Section 5.4) returns 100% for every target; a colluding
// monitor's ForgeReport hook gets the final word on what leaves the
// node.
func (n *Node) EstimateOf(u ids.ID) (float64, bool) {
	i, ok := n.tsIdx.get(u)
	if !ok {
		return 0, false
	}
	t := &n.ts[i]
	est, known := 0.0, false
	switch {
	case n.cfg.Overreport:
		est, known = 1.0, true
	case t.samples() > 0:
		est, known = t.estimate(n.lastTickTime()), true
	}
	if n.cfg.ForgeReport != nil {
		return n.cfg.ForgeReport(u, est, known)
	}
	return est, known
}

// lastTickTime approximates "now" for estimate queries; windowed
// stores age relative to the most recent observation, for which the
// last ack or probe time is the best proxy the node has.
func (n *Node) lastTickTime() time.Time {
	var latest int64
	for i := range n.ts {
		t := &n.ts[i]
		if t.awaitingAt > latest {
			latest = t.awaitingAt
		}
		if t.lastAck > latest {
			latest = t.lastAck
		}
	}
	if latest == 0 {
		return time.Time{}
	}
	return time.Unix(0, latest)
}

// MonitoringStats summarizes the node's monitoring activity.
type MonitoringStats struct {
	Targets         int
	PingsSent       uint64
	Acks            uint64
	PingsSaved      uint64
	PingsSuppressed uint64
}

// MonitoringStats returns a snapshot of monitoring activity counters.
func (n *Node) MonitoringStats() MonitoringStats {
	var s MonitoringStats
	s.Targets = len(n.ts)
	for i := range n.ts {
		t := &n.ts[i]
		s.PingsSent += uint64(t.pingsSent)
		s.Acks += uint64(t.acks)
		s.PingsSaved += uint64(t.pingsSaved)
		s.PingsSuppressed += uint64(t.pingsSuppressed)
	}
	return s
}
