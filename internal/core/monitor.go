package core

import (
	"slices"
	"time"

	"avmon/internal/ids"
)

// target tracks one monitored node u ∈ TS(x): its outstanding probe and
// the session bookkeeping that drives forgetful pinging (Section 3.3).
// Targets live by value in Node.ts, aligned with their identities in
// Node.tsIDs, in discovery order, and are never dropped — forgetful
// pinging probes a long-absent target less often instead. Instants are
// UnixNano integers rather than time.Time so the record is pointer-free
// (every simulated and real instant is far past 1970, so the zero value
// still means "never"), and the record is half a 64-byte cache line: TS
// holds ~K ≈ 21 of these per node at N = 10⁶, where every 8 bytes here
// is 160 MB. It keeps only what a protocol step reads (see DESIGN.md,
// "Memory diet"): the probe's send time is the node's probedAt, its
// sequence number an offset from the node's probeBase, and the up and
// down phases share since and last.
type target struct {
	// up and total count the answered and all resolved monitoring pings,
	// the paper's estimator (Section 5.4: "the fraction of monitoring
	// pings sent to that node which receive a response back"). One
	// sample per monitoring period keeps 2³¹ out of reach. up > 0 means
	// the target has answered at least once.
	up, total int32

	// probe is the outstanding MON-PING's sequence number minus the
	// node's probeBase (0 = none): every outstanding probe was sent by
	// the node's last MonitorTick.
	probe uint32
	down  bool

	// While up, since is the start of the observed session and last the
	// latest ack; while down, since is when the target went down and
	// last the duration of its last whole session ts(u) (0 if none).
	// All are UnixNano but that duration.
	since, last int64
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
	probedAt := n.probedAt // when last round's probes went out
	n.probedAt, n.probeBase = nowNanos, n.seq
	for i := range n.ts {
		t := &n.ts[i]
		// 1. An unanswered probe from a previous round is a "down"
		// observation. The session it ends, if any, was last − since.
		if t.probe != 0 {
			t.probe = 0
			t.total++
			if !t.down {
				t.down = true
				t.since, t.last = probedAt, t.last-t.since
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
			downFor := time.Duration(nowNanos - t.since)
			if downFor > n.cfg.ForgetfulTau {
				ts := time.Duration(t.last)
				if ts <= 0 {
					// Never observed a full session: use one
					// monitoring period as the session floor.
					ts = n.cfg.MonitorPeriod
				}
				p := n.cfg.ForgetfulC * float64(ts) / float64(ts+downFor)
				if p > 1 {
					p = 1
				}
				if n.rand.Float64() >= p {
					n.pingsSaved++
					continue
				}
			}
		}
		// 4. Probe.
		seq := n.nextSeq()
		t.probe = uint32(seq - n.probeBase)
		n.pingsSent++
		msg := n.newMsg()
		msg.Type = MsgMonPing
		msg.Seq = seq
		n.send(n.tsIDs[i], msg)
	}
}

// handleMonAck counts a monitoring acknowledgment in the target's
// record.
func (n *Node) handleMonAck(from ids.ID, seq uint64, now time.Time) {
	i := slices.Index(n.tsIDs, from)
	if i < 0 {
		return
	}
	t := &n.ts[i]
	// Only the outstanding probe's ack counts, compared in full; seq 0
	// means none is outstanding, so a target cannot pad its history with
	// unasked acks.
	if seq == 0 || t.probe == 0 || seq != n.probeBase+uint64(t.probe) {
		return
	}
	t.probe = 0
	n.acks++
	if t.down || t.up == 0 {
		t.since = now.UnixNano()
		t.down = false
	}
	t.up++
	t.total++
	t.last = now.UnixNano()
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
	switch t := &n.ts[i]; {
	case n.cfg.Overreport:
		est, known = 1.0, true
	case t.total > 0:
		est, known = float64(t.up)/float64(t.total), true
	}
	if n.cfg.ForgeReport != nil {
		return n.cfg.ForgeReport(u, est, known)
	}
	return est, known
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
