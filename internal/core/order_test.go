package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"avmon/internal/ids"
)

// discoveryOracle is the pre-flat-table PS/TS implementation — a
// membership map plus an append-only discovery-order slice — kept here
// as the reference the indexed slices are diffed against. The
// documented contract (node.go) is that Node.ps/Node.ts list members
// in exact discovery order; rebootstrap target choice and the
// DiscoveryTimes figure depend on it.
type discoveryOracle struct {
	self    ids.ID
	related func(u, v ids.ID) bool

	ps      map[ids.ID]struct{}
	psOrder []ids.ID
	ts      map[ids.ID]struct{}
	tsOrder []ids.ID
}

func newDiscoveryOracle(self ids.ID, related func(u, v ids.ID) bool) *discoveryOracle {
	return &discoveryOracle{
		self:    self,
		related: related,
		ps:      make(map[ids.ID]struct{}),
		ts:      make(map[ids.ID]struct{}),
	}
}

// notify mirrors Node.handleNotify's membership logic on the map
// implementation.
func (o *discoveryOracle) notify(u, v ids.ID) {
	if u.IsNone() || v.IsNone() {
		return
	}
	switch o.self {
	case v:
		if _, known := o.ps[u]; known || !o.related(u, v) {
			return
		}
		o.ps[u] = struct{}{}
		o.psOrder = append(o.psOrder, u)
	case u:
		if _, known := o.ts[v]; known || !o.related(u, v) {
			return
		}
		o.ts[v] = struct{}{}
		o.tsOrder = append(o.tsOrder, v)
	}
}

// sentLog is a Transport that records what a node sends.
type sentLog struct {
	msgs    []sentMsg
	checked int // msgs[:checked] have passed checkInvariants
}

type sentMsg struct {
	to            ids.ID
	typ           MsgType
	u, v, subject ids.ID
	weight        int
}

func (l *sentLog) Send(to ids.ID, m *Message) {
	l.msgs = append(l.msgs, sentMsg{to, m.Type, m.U, m.V, m.Subject, m.Weight})
}

// lastObservedByScan walks TS for the latest probe or ack time: the
// reference for the running maximum EstimateOf reads.
func lastObservedByScan(n *Node) int64 {
	var latest int64
	for i := range n.ts {
		latest = max(latest, n.ts[i].awaitingAt, n.ts[i].lastAck)
	}
	return latest
}

// checkInvariants is the whole-node state check run after every step of
// the node oracles and fuzzers; in is the message the step handled, nil
// for none. It checks that
//   - PS and TS hold only identities that satisfy the consistency
//     condition in the right direction — never None, self or a duplicate;
//   - TS's columns are aligned: a record per identity, and no Stores
//     under the raw history style, else a Store per identity;
//   - the node's latest observation equals the scan over its targets,
//     and it has taken no more acks than it sent probes;
//   - the coarse view stays within cvs with no None, self or duplicate;
//   - when the node's transport is a sentLog, nothing sent since the
//     last check went to None or self, and a JOIN forwarded for in
//     carries no more weight than in did, nor than maxJoinWeight.
func checkInvariants(n *Node, in *Message) error {
	psIDs := make([]ids.ID, len(n.ps))
	for i, m := range n.ps {
		psIDs[i] = m.id
	}
	if err := checkSet("PS", psIDs, n.id, func(u ids.ID) bool { return n.cfg.Scheme.Related(u, n.id) }); err != nil {
		return err
	}
	if err := checkSet("TS", n.tsIDs, n.id, func(v ids.ID) bool { return n.cfg.Scheme.Related(n.id, v) }); err != nil {
		return err
	}
	if len(n.ts) != len(n.tsIDs) {
		return fmt.Errorf("TS has %d records for %d identities", len(n.ts), len(n.tsIDs))
	}
	if raw := n.cfg.HistoryStyle == "raw"; raw && n.stores != nil || !raw && len(n.stores) != len(n.tsIDs) {
		return fmt.Errorf("history style %q with %d Stores (nil %v) for %d targets", n.cfg.HistoryStyle, len(n.stores), n.stores == nil, len(n.tsIDs))
	}
	if scan := lastObservedByScan(n); n.lastObserved != scan {
		return fmt.Errorf("latest observation %d, the scan over TS %d", n.lastObserved, scan)
	}
	if n.acks > n.pingsSent {
		return fmt.Errorf("%d acks taken for %d probes sent", n.acks, n.pingsSent)
	}
	if n.cv.size() > n.cfg.CVS {
		return fmt.Errorf("CV holds %d entries, cvs %d", n.cv.size(), n.cfg.CVS)
	}
	for i, id := range n.cv.items {
		if id.IsNone() || id == n.id || slices.Contains(n.cv.items[:i], id) {
			return fmt.Errorf("CV %v holds None, self %v or a duplicate", n.cv.items, n.id)
		}
	}
	log, ok := n.cfg.Transport.(*sentLog)
	if !ok {
		return nil
	}
	for _, s := range log.msgs[log.checked:] {
		if s.to.IsNone() || s.to == n.id {
			return fmt.Errorf("sent %v to %v (self %v)", s.typ, s.to, n.id)
		}
		if s.typ == MsgJoin && in != nil && in.Type == MsgJoin && s.subject == in.Subject &&
			(s.weight > in.Weight || s.weight > maxJoinWeight) {
			return fmt.Errorf("forwarded JOIN(%v) with weight %d, received %d", s.subject, s.weight, in.Weight)
		}
	}
	log.checked = len(log.msgs)
	return nil
}

// checkSet checks a set's members: real identities other than self,
// none twice, each related to self in the set's direction.
func checkSet(set string, members []ids.ID, self ids.ID, related func(ids.ID) bool) error {
	for i, v := range members {
		if v.IsNone() || v == self || slices.Contains(members[:i], v) {
			return fmt.Errorf("%s %v holds None, self %v or a duplicate", set, members, self)
		}
		if !related(v) {
			return fmt.Errorf("%s member %v is not related to self %v in the set's direction", set, v, self)
		}
	}
	return nil
}

// TestDiscoveryOrderMatchesMapOracle drives a node with a long random
// NOTIFY stream — duplicates, self pairs, forged Nones, unrelated
// pairs — interleaved with monitoring rounds and MON-ACKs from anyone
// (a target's answering its probe half the time), under the inlined raw
// history and under one with Stores. After every step the identities in
// ps and tsIDs must equal the map+order-slice oracle element for
// element, checkInvariants must hold, and an ack must have counted only
// if it came from a target with a probe outstanding.
func TestDiscoveryOrderMatchesMapOracle(t *testing.T) {
	self := ids.Sim(0)
	// An even/odd scheme: exercises the re-check path (unrelated pairs
	// must be rejected) with a deterministic, symmetric-free predicate.
	related := func(u, v ids.ID) bool {
		if u == v || u.IsNone() || v.IsNone() {
			return false
		}
		return (uint64(u)+uint64(v))%3 != 0
	}
	pool := make([]ids.ID, 40)
	for i := range pool {
		pool[i] = ids.Sim(i) // includes self at index 0
	}
	pool = append(pool, ids.None)

	for _, style := range []string{"raw", "recent:1h"} {
		n, err := NewNode(Config{
			ID: self, Scheme: predicateScheme{related}, Transport: &sentLog{},
			Rand: rand.New(rand.NewSource(1)), CVS: 8, HistoryStyle: style,
		})
		if err != nil {
			t.Fatal(err)
		}
		now := time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC)
		n.Join(now, ids.None)
		oracle := newDiscoveryOracle(self, related)
		rng := rand.New(rand.NewSource(71))
		msg := &Message{}
		for op := 0; op < 8000; op++ {
			var in *Message // the step's message; nil for a monitoring round
			from := ids.Sim(1 + rng.Intn(39))
			outstanding := false // the step is a MON-ACK from a target with a probe out
			switch rng.Intn(8) {
			case 0:
				now = now.Add(time.Minute)
				n.MonitorTick(now)
			case 1:
				now = now.Add(time.Second) // an answer arrives after its probe
				from = pool[rng.Intn(len(pool))]
				*msg = Message{Type: MsgMonAck, Seq: uint64(rng.Intn(3))}
				if i := slices.Index(n.tsIDs, from); i >= 0 {
					if outstanding = n.ts[i].awaitingSeq != 0; rng.Intn(2) == 0 {
						msg.Seq = n.ts[i].awaitingSeq
					}
				}
				in = msg
			default:
				u := pool[rng.Intn(len(pool))]
				v := pool[rng.Intn(len(pool))]
				// Bias half the traffic onto pairs involving self, else
				// almost every message is a no-op for this node.
				if rng.Intn(2) == 0 {
					if rng.Intn(2) == 0 {
						u = self
					} else {
						v = self
					}
				}
				*msg = Message{Type: MsgNotify, U: u, V: v}
				in = msg
				oracle.notify(u, v)
			}
			acks := n.MonitoringStats().Acks
			if in != nil {
				n.Handle(from, in, now)
			}
			if n.MonitoringStats().Acks != acks && !outstanding {
				t.Fatalf("%s op %d: a MON-ACK(seq %d) from %v counted with no probe outstanding", style, op, in.Seq, from)
			}

			var ps []ids.ID
			for _, m := range n.ps {
				ps = append(ps, m.id)
			}
			if !slices.Equal(ps, oracle.psOrder) || !slices.Equal(n.tsIDs, oracle.tsOrder) {
				t.Fatalf("%s op %d %v: PS %v and TS %v, oracle %v and %v", style, op, in, ps, n.tsIDs, oracle.psOrder, oracle.tsOrder)
			}
			if err := checkInvariants(n, in); err != nil {
				t.Fatalf("%s op %d %v: %v", style, op, in, err)
			}
		}
		if len(oracle.psOrder) == 0 || len(oracle.tsOrder) == 0 {
			t.Fatalf("%s: degenerate run: the stream discovered nothing", style)
		}
		if st := n.MonitoringStats(); st.Acks == 0 {
			t.Fatalf("%s: degenerate run: no probe was ever answered (%+v)", style, st)
		}
		// The sorted public views agree with the oracle membership too.
		wantPS := slices.Clone(oracle.psOrder)
		ids.Sort(wantPS)
		wantTS := slices.Clone(oracle.tsOrder)
		ids.Sort(wantTS)
		if !slices.Equal(n.PS(), wantPS) || !slices.Equal(n.TS(), wantTS) {
			t.Errorf("%s: PS() = %v and TS() = %v, oracle %v and %v", style, n.PS(), n.TS(), wantPS, wantTS)
		}
	}
}

// predicateScheme adapts a func to SelectionScheme for tests.
type predicateScheme struct {
	fn func(u, v ids.ID) bool
}

func (p predicateScheme) Related(y, x ids.ID) bool { return p.fn(y, x) }
func (p predicateScheme) K() int                   { return 1 }
