package core

import (
	"cmp"
	"slices"
	"time"

	"avmon/internal/ids"
)

// specNode is core.Node as the paper writes it — Figure 1's JOIN, Figure 2's
// coarse views and discovery, § 3.3's monitoring — plus the rules it leaves
// out: the sender rule, self-repair after 8 silent periods, and a 1024 cap on
// fetched views and JOIN weights. PS and TS are maps beside discovery-order
// slices; Related is called a pair at a time; CV is drawn from and
// swap-removed as view does, so each random draw matches the node's.
type specNode struct {
	cfg                                                   Config
	alive, everBorn                                       bool
	bornAt, lastLeave, lastCoarseContact, lastMonPingRecv time.Time
	cvPingTarget                                          ids.ID // probed last period, not answered yet
	cvPingSeq, seq, hashChecks                            uint64
	stats                                                 MonitoringStats          // all but Targets
	cv, psOrder, tsOrder                                  []ids.ID                 // CV(x), at most cvs; PS and TS in discovery order
	ps                                                    map[ids.ID]time.Duration // PS(x): each monitor, found when (since birth)
	ts                                                    map[ids.ID]*specTarget   // TS(x)
}

type specTarget struct { // what x keeps on one u ∈ TS(x)
	up, total                                    int    // probes answered, probes resolved
	awaitingSeq                                  uint64 // the probe outstanding, 0 for none
	awaitingAt, lastAck, sessionStart, downSince time.Time
	lastSession                                  time.Duration // ts(u): the last whole session seen
	down                                         bool
}

// Join is Figure 1 at the joiner; a rejoin's weight is min(cvs, periods down) ≥ 1.
func (s *specNode) Join(now time.Time, bootstrap ids.ID) {
	weight := s.cfg.CVS
	if !s.everBorn {
		s.everBorn, s.bornAt = true, now
	} else if !s.cfg.RejoinFullWeight {
		weight = max(1, min(weight, int(now.Sub(s.lastLeave)/s.cfg.Period)))
	}
	s.alive, s.lastMonPingRecv, s.lastCoarseContact, s.cvPingTarget, s.cv = true, now, now, ids.None, s.cv[:0]
	if !bootstrap.IsNone() && bootstrap != s.cfg.ID {
		s.send(bootstrap, Message{Type: MsgJoin, Subject: s.cfg.ID, Weight: weight})
		s.send(bootstrap, Message{Type: MsgCVFetch, Seq: s.nextSeq()})
		s.add(bootstrap)
	}
}

// Leave is a crash or a departure: state persists, probes die.
func (s *specNode) Leave(now time.Time) {
	s.alive, s.lastLeave, s.cvPingTarget = false, now, ids.None
	for _, t := range s.ts {
		t.awaitingSeq = 0
	}
}

// Handle takes m from whoever the datagram claims sent it.
func (s *specNode) Handle(from ids.ID, m *Message, now time.Time) {
	if !s.alive || from.IsNone() || from == s.cfg.ID && MsgJoin <= m.Type && m.Type <= MsgPR2 {
		return // the sender rule
	}
	if m.Type == MsgJoin || m.Type == MsgPing || m.Type == MsgCVFetch || m.Type == MsgPR2 {
		s.lastCoarseContact = now // from holds x in its CV
	}
	switch m.Type {
	case MsgJoin: // Figure 1 at a receiver: hold the joiner, spread the rest of its weight (≤ 1024) halved
		joiner, weight := m.Subject, min(m.Weight, 1024)-1
		if m.Weight <= 0 || joiner.IsNone() || joiner == s.cfg.ID || slices.Contains(s.cv, joiner) {
			return
		}
		s.admit(joiner)
		for _, w := range []int{weight / 2, weight - weight/2} {
			if w > 0 && len(s.cv) > 1 { // to a random member but the joiner, which is last
				s.send(s.cv[s.cfg.Rand.Intn(len(s.cv)-1)], Message{Type: MsgJoin, Subject: joiner, Weight: w})
			}
		}
	case MsgPing:
		s.send(from, Message{Type: MsgPong, Seq: m.Seq})
	case MsgPong:
		if from == s.cvPingTarget && m.Seq == s.cvPingSeq {
			s.cvPingTarget = ids.None
		}
	case MsgCVFetch:
		s.send(from, Message{Type: MsgCVResp, Seq: m.Seq, View: slices.Clone(s.cv)})
	case MsgCVResp: // Figure 2 on CV(w) (≤ 1024 entries) from w: check each ordered pair of
		// (CV(x) ∪ {x, w}) × (CV(w) ∪ {x, w}) once, then redraw CV(x) from CV(x) ∪ CV(w) ∪ {w} − x
		w, fetched := from, m.View[:min(len(m.View), 1024)]
		a, b := uniq(s.cv, s.cfg.ID, w), uniq(fetched, s.cfg.ID, w)
		for _, u := range a {
			uInB := slices.Contains(b, u)
			for _, v := range b {
				s.check(u, v, now)
				if !uInB || !slices.Contains(a, v) { // else (v from a, u from b) is this pair
					s.check(v, u, now)
				}
			}
		}
		if s.cfg.DisableReshuffle {
			s.add(w)
			return
		}
		pool := slices.DeleteFunc(uniq(uniq(s.cv, fetched...), w), func(id ids.ID) bool { return id == s.cfg.ID })
		k := min(s.cfg.CVS, len(pool))
		for i := 0; i < k; i++ {
			j := i + s.cfg.Rand.Intn(len(pool)-i)
			pool[i], pool[j] = pool[j], pool[i]
		}
		s.cv = append(s.cv[:0], pool[:k]...)
	case MsgNotify:
		s.notify(m.U, m.V, now)
	case MsgMonPing:
		s.lastMonPingRecv = now
		s.send(from, Message{Type: MsgMonAck, Seq: m.Seq})
	case MsgMonAck: // only the answer to the probe outstanding
		if t := s.ts[from]; t != nil && m.Seq != 0 && m.Seq == t.awaitingSeq {
			t.awaitingSeq, t.lastAck = 0, now
			s.stats.Acks++
			t.up, t.total = t.up+1, t.total+1
			if t.down || t.sessionStart.IsZero() {
				t.sessionStart, t.down = now, false
			}
		}
	case MsgPR2: // "hold me in your view"
		if !slices.Contains(s.cv, from) {
			s.admit(from)
		}
	case MsgReportReq: // count members of PS(x) at random, or all
		all := slices.Clone(s.psOrder)
		ids.Sort(all)
		if 0 < m.Count && m.Count < len(all) {
			s.cfg.Rand.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			all = all[:m.Count]
		}
		s.send(from, Message{Type: MsgReportResp, Seq: m.Seq, Nonce: m.Nonce, View: all})
	case MsgAvailBatchReq:
		resp := Message{Type: MsgAvailBatchResp, Seq: m.Seq, Nonce: m.Nonce, View: slices.Clone(m.View)}
		for _, u := range m.View {
			est, known := s.EstimateOf(u)
			resp.Avails, resp.Knowns = append(resp.Avails, est), append(resp.Knowns, known)
		}
		s.send(from, resp)
	}
}

// Tick is one period of Figure 2 after self-repair: an empty CV, or 8 periods with no
// JOIN, PING, CV-FETCH or PR2, walks back in through a member of CV, else of TS then PS.
func (s *specNode) Tick(now time.Time) {
	if !s.alive {
		return
	}
	if len(s.cv) == 0 || now.Sub(s.lastCoarseContact) >= 8*s.cfg.Period {
		via := s.random()
		if known := append(slices.Clone(s.tsOrder), s.psOrder...); via.IsNone() && len(known) > 0 {
			via = known[s.cfg.Rand.Intn(len(known))]
		}
		if !via.IsNone() {
			s.lastCoarseContact = now
			s.send(via, Message{Type: MsgJoin, Subject: s.cfg.ID, Weight: s.cfg.CVS})
			s.send(via, Message{Type: MsgCVFetch, Seq: s.nextSeq()})
			s.add(via)
		}
	}
	if i := slices.Index(s.cv, s.cvPingTarget); i >= 0 { // last period's probe went unanswered
		s.removeAt(i)
	}
	s.cvPingTarget = ids.None
	if z := s.random(); !z.IsNone() {
		s.cvPingTarget, s.cvPingSeq = z, s.nextSeq()
		s.send(z, Message{Type: MsgPing, Seq: s.cvPingSeq})
	}
	if w := s.random(); !w.IsNone() {
		s.send(w, Message{Type: MsgCVFetch, Seq: s.nextSeq()})
	}
	if s.cfg.PR2 && now.Sub(s.lastMonPingRecv) >= 2*s.cfg.Period { // nobody monitors x
		for _, y := range s.cv {
			s.send(y, Message{Type: MsgPR2})
		}
		s.lastMonPingRecv = now
	}
}

// check evaluates u ∈ PS(v), u ≠ v, and tells both, locally where x is one.
func (s *specNode) check(u, v ids.ID, now time.Time) {
	if u == v || !s.related(u, v) {
		return
	}
	for _, dst := range []ids.ID{u, v} {
		if dst == s.cfg.ID {
			s.notify(u, v, now)
		} else {
			s.send(dst, Message{Type: MsgNotify, U: u, V: v})
		}
	}
}

func (s *specNode) related(u, v ids.ID) bool {
	s.hashChecks++
	return s.cfg.Scheme.Related(u, v)
}

// notify takes NOTIFY(u, v), u ∈ PS(v), once it holds on x's own check.
func (s *specNode) notify(u, v ids.ID, now time.Time) {
	switch {
	case u.IsNone() || v.IsNone():
	case v == s.cfg.ID:
		if _, known := s.ps[u]; !known && s.related(u, v) {
			s.ps[u], s.psOrder = now.Sub(s.bornAt), append(s.psOrder, u)
		}
	case u == s.cfg.ID:
		if s.ts[v] == nil && s.related(u, v) {
			s.ts[v], s.tsOrder = &specTarget{}, append(s.tsOrder, v)
		}
	}
}

// MonitorTick is § 3.3's period: an unanswered probe is a down sample; every target is
// probed, under forgetful pinging one down longer than τ with probability c·ts/(ts+t).
func (s *specNode) MonitorTick(now time.Time) {
	if !s.alive {
		return
	}
	for _, u := range s.tsOrder {
		t := s.ts[u]
		if t.awaitingSeq != 0 {
			t.awaitingSeq = 0
			t.total++
			if !t.down { // a session ended; one never seen whole counts as a monitoring period
				t.down, t.downSince, t.lastSession = true, t.awaitingAt, cmp.Or(t.lastAck.Sub(t.sessionStart), s.cfg.MonitorPeriod)
			}
		}
		if downFor := now.Sub(t.downSince); s.cfg.Forgetful && t.down && downFor > s.cfg.ForgetfulTau {
			if s.cfg.Rand.Float64() >= min(1, s.cfg.ForgetfulC*float64(t.lastSession)/float64(t.lastSession+downFor)) {
				s.stats.PingsSaved++
				continue
			}
		}
		t.awaitingSeq, t.awaitingAt = s.nextSeq(), now
		s.stats.PingsSent++
		s.send(u, Message{Type: MsgMonPing, Seq: t.awaitingSeq})
	}
}

// EstimateOf is x's estimate for u ∈ TS(x): the fraction of its probes answered (§ 5.4).
func (s *specNode) EstimateOf(u ids.ID) (float64, bool) {
	if t := s.ts[u]; t != nil && t.total > 0 {
		return float64(t.up) / float64(t.total), true
	}
	return 0, false
}

func (s *specNode) random() ids.ID {
	if len(s.cv) == 0 {
		return ids.None
	}
	return s.cv[s.cfg.Rand.Intn(len(s.cv))]
}

func (s *specNode) add(id ids.ID) {
	if !id.IsNone() && len(s.cv) < s.cfg.CVS && !slices.Contains(s.cv, id) {
		s.cv = append(s.cv, id)
	}
}

// admit appends id to CV, in place of a random member when CV is full.
func (s *specNode) admit(id ids.ID) {
	if len(s.cv) >= s.cfg.CVS {
		s.removeAt(s.cfg.Rand.Intn(len(s.cv)))
	}
	s.cv = append(s.cv, id)
}

func (s *specNode) removeAt(i int)            { s.cv[i], s.cv = s.cv[len(s.cv)-1], s.cv[:len(s.cv)-1] }
func (s *specNode) nextSeq() uint64           { s.seq++; return s.seq }
func (s *specNode) send(to ids.ID, m Message) { m.From = s.cfg.ID; s.cfg.Transport.Send(to, &m) }

// uniq returns list then more, in order, without None or a repeat.
func uniq(list []ids.ID, more ...ids.ID) (out []ids.ID) {
	for _, id := range append(slices.Clone(list), more...) {
		if !id.IsNone() && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}
