package core

import (
	"slices"
	"time"

	"avmon/internal/availability"
	"avmon/internal/ids"
)

// target tracks one monitored node u ∈ TS(x): its outstanding probe and
// the session bookkeeping that drives forgetful pinging (Section 3.3).
// Targets live by value in Node.ts, aligned with their identities in
// Node.tsIDs, in discovery order, and are never dropped — forgetful
// pinging probes a long-absent target less often instead. Timestamps
// are UnixNano integers rather than time.Time so the record is
// pointer-free (every simulated and real instant is far past 1970, so
// the zero value still means "never"), and the whole record is one
// 64-byte cache line: TS holds ~K ≈ 21 of these per node at N = 10⁶,
// where every 8 bytes here is 160 MB.
type target struct {
	// raw is the availability history under the default "raw" style;
	// any other style keeps the target's Store in Node.stores instead.
	raw availability.Raw

	awaitingSeq uint64 // outstanding MON-PING sequence (0 = none)
	awaitingAt  int64  // UnixNano

	lastAck      int64         // UnixNano
	sessionStart int64         // UnixNano: start of the currently observed session
	downSince    int64         // UnixNano
	lastSession  time.Duration // most recent completed observed session ts(u)

	everAcked bool
	down      bool
}

// history returns target i's availability history: its Store where the
// style has one, else the raw history inlined in its record.
func (n *Node) history(i int) availability.Store {
	if n.stores != nil {
		return n.stores[i]
	}
	return &n.ts[i].raw
}

// observe advances lastObserved, the latest probe or ack time.
func (n *Node) observe(at int64) { n.lastObserved = max(n.lastObserved, at) }

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
			n.history(i).Record(now, false)
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
		if n.cfg.SuppressMonPing != nil && n.cfg.SuppressMonPing(n.tsIDs[i]) {
			n.pingsSuppressed++
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
					n.pingsSaved++
					continue
				}
			}
		}
		// 4. Probe.
		t.awaitingSeq = n.nextSeq()
		t.awaitingAt = nowNanos
		n.observe(nowNanos)
		n.pingsSent++
		msg := n.newMsg()
		msg.Type = MsgMonPing
		msg.Seq = t.awaitingSeq
		n.send(n.tsIDs[i], msg)
	}
}

// handleMonAck folds a monitoring acknowledgment into the target's
// history.
func (n *Node) handleMonAck(from ids.ID, seq uint64, now time.Time) {
	i := slices.Index(n.tsIDs, from)
	if i < 0 {
		return
	}
	t := &n.ts[i]
	// Only the outstanding probe's ack counts; seq 0 means none is
	// outstanding, so a target cannot pad its history with unasked acks.
	if seq == 0 || seq != t.awaitingSeq {
		return
	}
	t.awaitingSeq = 0
	n.acks++
	n.history(i).Record(now, true)
	if t.down || !t.everAcked {
		t.sessionStart = now.UnixNano()
		t.down = false
	}
	t.everAcked = true
	t.lastAck = now.UnixNano()
	n.observe(t.lastAck)
}

// EstimateOf returns this node's availability estimate for a node it
// monitors, and whether it monitors it at all. An overreporting
// monitor (Section 5.4) returns 100% for every target; a colluding
// monitor's ForgeReport hook gets the final word on what leaves the
// node.
func (n *Node) EstimateOf(u ids.ID) (float64, bool) {
	i := slices.Index(n.tsIDs, u)
	if i < 0 {
		return 0, false
	}
	est, known := 0.0, false
	switch h := n.history(i); {
	case n.cfg.Overreport:
		est, known = 1.0, true
	case h.Samples() > 0:
		est, known = h.Estimate(n.lastTickTime()), true
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
	if n.lastObserved == 0 {
		return time.Time{}
	}
	return time.Unix(0, n.lastObserved)
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
	return MonitoringStats{
		Targets:         len(n.ts),
		PingsSent:       n.pingsSent,
		Acks:            n.acks,
		PingsSaved:      n.pingsSaved,
		PingsSuppressed: n.pingsSuppressed,
	}
}
