package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"avmon/internal/hashing"
	"avmon/internal/ids"
)

// protocolNode is what a FuzzNodeMessages step drives: Node and specNode.
type protocolNode interface {
	Join(now time.Time, bootstrap ids.ID)
	Leave(now time.Time)
	Handle(from ids.ID, m *Message, now time.Time)
	Tick(now time.Time)
	MonitorTick(now time.Time)
	EstimateOf(u ids.ID) (float64, bool)
}

// FuzzNodeMessages applies each step decoded from script to a Node and to
// a specNode of the same Config and seed: after every step both must have
// sent the same messages, whole and in order, and agree on PS, TS and CV
// in order, DiscoveryTimes, HashChecks, MonitoringStats, estimates, birth
// instant and random stream, and the node must pass checkInvariants. conf holds cvs−2
// (bits 0–4); the fast Selector's kernel, Memoize(MD5)'s memo row or
// RelatedRow hidden (5–6); PR2, Forgetful, DisableReshuffle,
// RejoinFullWeight (7–10); a MonitorPeriod twice Period (11), so a rule
// that reads the wrong one of the two diverges; bit 12 is retired (it
// once made the node withhold probes) and, like the bits above, ignored.
// A step is
// an op byte (kind in bits 0–2, arg above) and operands:
//
//	0     the clock advances (arg+1)·15 s
//	1, 2  Tick, MonitorTick
//	3, 4  Join through the next byte's identity, Leave
//	5     Leave, (arg+1) minutes down, rejoin through the next byte's identity
//	6, 7  deliver type arg&15 (out of range too): sender, subject, U, V,
//	      weight, seq, nonce, count, view length, view
//
// Identity bytes: None at 0, self at 1, off the simulated range from 250,
// else ids.Sim(b%32). Weight: an int8, (b−100)·100 above 100. Seq from
// 240: the node's latest minus (b−240)%10, a recent probe's, plus 2³² from
// 250. View length: b&15, plus 1100 past the cap from 240, once a script
// (a sweep of milliseconds).
func FuzzNodeMessages(f *testing.F) {
	addNodeSeeds(f)
	f.Fuzz(runNodeScript)
}

// FuzzJoinEquivalence keeps the JOIN walk's grid — views empty, holding only
// the joiner, partly filled and full; the subject absent, present and self;
// weights from -1 past cvs — as FuzzNodeMessages scripts: cvs, the members
// the view holds, and (subject, weight) pairs, each a JOIN from a third node.
func FuzzJoinEquivalence(f *testing.F) {
	for cvs := byte(0); cvs < 4; cvs++ { // cvs 2…5, so cvs+2 stays in the weight range below
		for fill := byte(0); fill <= cvs+2; fill++ {
			for w := byte(0); w < 9; w++ { // weights -1…7
				f.Add(cvs, fill, []byte{40, w, 3, w, 0, w, 41, 8 - w, 40, 2}, int64(fill)*31+int64(w))
			}
		}
	}
	f.Add(byte(46), byte(48), []byte{200, 50, 201, 49, 7, 51, 202, 3}, int64(5))
	f.Fuzz(func(t *testing.T, cvsB, fill byte, pairs []byte, seed int64) {
		cvs := cvsB%30 + 2
		members := make([]byte, fill%(cvs+1)) // fill ≥ 1 puts Sim(2), a subject below, alone in the view
		for i := range members {
			members[i] = byte(i) + 2
		}
		script := holding(members...)
		for k := 0; k+1 < len(pairs); k += 2 { // subjects over a pool a little wider than the view, 1 = self
			script = append(script, seedMsg{typ: MsgJoin, from: 31, subject: pairs[k]%(cvs+3) + 1, weight: pairs[k+1]%(cvs+4) - 1}.step()...)
		}
		runNodeScript(t, seed, uint16(cvs-2), script)
	})
}

// runNodeScript is one FuzzNodeMessages input: seed, conf and script.
func runNodeScript(t *testing.T, seed int64, conf uint16, script []byte) {
	fast, err := hashing.NewSelector(hashing.FastHasher{}, 8, 32)
	md5, err2 := hashing.NewSelector(hashing.MD5Hasher{}, 8, 32)
	if err = errors.Join(err, err2); err != nil {
		t.Fatal(err)
	}
	id := func(b byte) ids.ID {
		switch {
		case b == 0:
			return ids.None
		case b >= 250:
			return ids.New(192, 168, 0, b, 9)
		}
		return ids.Sim(int(b) % 32)
	}
	bit := func(i uint) bool { return conf>>i&1 == 1 }
	hidden := struct{ SelectionScheme }{fast}
	var nodeLog, specLog sentLog
	cfg := Config{
		ID: ids.Sim(1), Scheme: [4]SelectionScheme{fast, hashing.Memoize(md5, 0), hidden, hidden}[conf>>5&3],
		Transport: &nodeLog, Rand: rand.New(rand.NewSource(seed)), CVS: int(conf&31) + 2,
		PR2: bit(7), Forgetful: bit(8), DisableReshuffle: bit(9), RejoinFullWeight: bit(10),
	}
	if bit(11) {
		cfg.MonitorPeriod = 2 * DefaultPeriod
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &specNode{cfg: n.Config(), ps: map[ids.ID]time.Duration{}, ts: map[ids.ID]*specTarget{}}
	s.cfg.Transport, s.cfg.Rand = &specLog, rand.New(rand.NewSource(seed))
	next := func() (b byte) {
		if len(script) > 0 {
			b, script = script[0], script[1:]
		}
		return b
	}
	now, long := time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC), false
	for step := 0; len(script) > 0; step++ {
		op := next()
		arg := time.Duration(op >> 3)
		var in *Message // the step's delivery, if any
		act := func(protocolNode) {}
		switch op & 7 {
		case 0:
			now = now.Add((arg + 1) * 15 * time.Second)
		case 1:
			act = func(p protocolNode) { p.Tick(now) }
		case 2:
			act = func(p protocolNode) { p.MonitorTick(now) }
		case 3:
			via := id(next())
			act = func(p protocolNode) { p.Join(now, via) }
		case 4:
			act = func(p protocolNode) { p.Leave(now) }
		case 5:
			left, via := now, id(next())
			now = now.Add((arg + 1) * time.Minute)
			act = func(p protocolNode) { p.Leave(left); p.Join(now, via) }
		default:
			from := id(next())
			in = &Message{Type: MsgType(arg & 15), Subject: id(next()), U: id(next()), V: id(next())}
			if in.Weight = int(int8(next())); in.Weight > 100 {
				in.Weight = (in.Weight - 100) * 100
			}
			if in.Seq = uint64(next()); in.Seq >= 240 {
				in.Seq = n.seq - (in.Seq-240)%10 + (in.Seq-240)/10<<32
			}
			in.Nonce, in.Count = uint64(next())*0x0101010101010101, int(int8(next()))
			view := next()
			for i := 0; i < int(view&15); i++ {
				in.View = append(in.View, id(next()))
			}
			for i := 0; view >= 240 && !long && i < 1100; i++ {
				in.View = append(in.View, ids.Sim(40+i))
			}
			long = long || view >= 240
			act = func(p protocolNode) { p.Handle(from, in, now) }
		}
		act(n)
		act(s)

		stats, ps := s.stats, []monitor(nil) // PS in order, each with its DiscoveryTimes entry
		stats.Targets = len(s.tsOrder)
		for _, u := range s.psOrder {
			ps = append(ps, monitor{u, s.ps[u]})
		}
		born := int64(0) // the node's instants are UnixNano, 0 for never
		if s.everBorn {
			born = s.bornAt.UnixNano()
		}
		estimates := func(p protocolNode) (out []any) {
			for _, u := range append(slices.Clone(s.tsOrder), ids.Sim(999)) {
				est, known := p.EstimateOf(u)
				out = append(out, est, known)
			}
			return out
		}
		for _, c := range [][3]any{
			{"sent", nodeLog.msgs, specLog.msgs},
			{"alive", n.alive, s.alive},
			{"PS", n.ps, ps},
			{"TS", n.tsIDs, s.tsOrder},
			{"CV", n.cv.items, s.cv},
			{"HashChecks", n.HashChecks(), s.hashChecks},
			{"MonitoringStats", n.MonitoringStats(), stats},
			{"estimates", estimates(n), estimates(s)},
			{"birth", [2]any{n.everBorn, n.bornAt}, [2]any{s.everBorn, born}},
			{"random stream", n.rand.Float64(), s.cfg.Rand.Float64()},
		} {
			// DeepEqual is fast on a long sweep's thousands of NOTIFYs; Sprint reads nil as empty.
			if got, want := c[1], c[2]; !reflect.DeepEqual(got, want) && fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d (op %#x, in %+v): %s\n%.2000v\nthe spec's\n%.2000v", step, op, in, c[0], got, want)
			}
		}
		if err := checkInvariants(n, in, nodeLog.msgs); err != nil {
			t.Fatalf("step %d (op %#x, in %+v): %v", step, op, in, err)
		}
		nodeLog.msgs, specLog.msgs = nodeLog.msgs[:0], specLog.msgs[:0]
	}
}

// sentLog is a Transport that records every message a node sends.
type sentLog struct{ msgs []sentMsg }

type sentMsg struct {
	to ids.ID
	Message
}

func (l *sentLog) Send(to ids.ID, m *Message) { l.msgs = append(l.msgs, sentMsg{to, *m}) }

// checkInvariants is the node-state check FuzzNodeMessages runs after
// every step: PS, TS and CV hold no None, self or duplicate, PS and TS
// only members related in their direction, CV at most cvs; TS's columns
// align; PS and TS have no room beyond their entries; Acks is Σ up over
// TS, and no more than the probes sent; and of the messages the step sent,
// none went to None nor a protocol message to self, and no JOIN forwarded
// for the delivery in (nil for none) weighs more than in or maxJoinWeight.
func checkInvariants(n *Node, in *Message, sent []sentMsg) error {
	for name, set := range map[string][]ids.ID{"PS": n.PS(), "TS": n.tsIDs, "CV": n.cv.items} {
		for i, v := range set {
			ok := name == "PS" && n.cfg.Scheme.Related(v, n.id) || name == "TS" && n.cfg.Scheme.Related(n.id, v) || name == "CV" && len(set) <= n.cfg.CVS
			if !ok || v.IsNone() || v == n.id || slices.Contains(set[:i], v) {
				return fmt.Errorf("%s %v (self %v) holds None, self, a duplicate, an unrelated member or too many", name, set, n.id)
			}
		}
	}
	if len(n.ts) != len(n.tsIDs) {
		return fmt.Errorf("%d targets, %d records", len(n.tsIDs), len(n.ts))
	}
	if cap(n.ps) != len(n.ps) || cap(n.tsIDs) != len(n.tsIDs) || cap(n.ts) != len(n.ts) {
		return fmt.Errorf("PS, TS ids and TS records hold %d/%d, %d/%d and %d/%d entries (len/cap), want no slack",
			len(n.ps), cap(n.ps), len(n.tsIDs), cap(n.tsIDs), len(n.ts), cap(n.ts))
	}
	var acks uint64
	for _, t := range n.ts {
		acks += uint64(t.up)
	}
	if got := n.MonitoringStats().Acks; acks != got || acks > n.pingsSent {
		return fmt.Errorf("Σ up %d, Acks %d, %d probes sent", acks, got, n.pingsSent)
	}
	for _, s := range sent {
		if s.to.IsNone() || s.to == n.id && s.Type <= MsgPR2 {
			return fmt.Errorf("sent %v to %v (self %v)", s.Type, s.to, n.id)
		}
		if s.Type == MsgJoin && in != nil && in.Type == MsgJoin && s.Subject == in.Subject &&
			(s.Weight > in.Weight || s.Weight > maxJoinWeight) {
			return fmt.Errorf("forwarded JOIN(%v) with weight %d, received %d", s.Subject, s.Weight, in.Weight)
		}
	}
	return nil
}

// Seed steps and conf bits, in FuzzNodeMessages's encoding.
var minute, tick, monitorTick = []byte{3 << 3}, []byte{1}, []byte{2}

const (
	confHidden, confPR2, confForgetful, confNoReshuffle = 2 << 5, 1 << 7, 1 << 8, 1 << 9
	confMemo, confSlowMonitor, confRetired              = 1 << 5, 1 << 11, 1 << 12
)

// seedMsg is a delivery step, its fields the step's bytes (view ≤ 15).
type seedMsg struct {
	typ                                            MsgType
	from, subject, u, v, weight, seq, nonce, count byte
	view                                           []byte
}

func (m seedMsg) step() []byte {
	return append([]byte{6 | byte(m.typ)<<3, m.from, m.subject, m.u, m.v, m.weight, m.seq, m.nonce, m.count, byte(len(m.view))}, m.view...)
}

// holding joins alone, then takes a JOIN of weight 1 from each of members:
// a view of them, with nothing forwarded.
func holding(members ...byte) []byte {
	script := []byte{3, 0}
	for _, b := range members {
		script = append(script, seedMsg{typ: MsgJoin, from: b, subject: b, weight: 1}.step()...)
	}
	return script
}

func addNodeSeeds(f *testing.F) {
	// The sweep: own and fetched views that overlap, repeat and hold None,
	// self and w, one past the 1024 cap (long), each fetched from w, then
	// from a member. The last was a find: under DisableReshuffle, a
	// CV-RESP claiming to come from the node put it into its own view.
	for _, sw := range []struct {
		conf            uint16
		own, fetched    []byte
		w, second, long byte
	}{
		{6, []byte{3, 4, 5, 6}, []byte{5, 6, 7, 8, 8, 0, 1}, 9, 8, 0},
		{3 | confMemo | confNoReshuffle, []byte{3, 4, 5, 2}, []byte{2, 2, 4, 1}, 2, 4, 0},
		{1 | confNoReshuffle, nil, nil, 0, 0, 0},
		{31, []byte{7, 1, 250, 251}, []byte{250, 9, 7}, 1, 9, 240},
		{18 | confNoReshuffle, nil, []byte{2, 7, 1, 32}, 0, 1, 0},
	} {
		script := holding(sw.own...)
		for _, w := range []byte{sw.w, sw.second} {
			step := seedMsg{typ: MsgCVResp, from: w, view: sw.fetched}.step()
			step[9] |= sw.long
			script = append(script, step...)
		}
		f.Add(int64(7), sw.conf, script)
		f.Add(int64(7), sw.conf&^confMemo|confHidden, script)
	}
	// Forged JOIN weights (FuzzJoinEquivalence holds the JOIN walk's grid).
	f.Add(int64(3), uint16(6), slices.Concat(holding(2, 3), seedMsg{typ: MsgJoin, from: 4, subject: 5, weight: 120}.step(),
		seedMsg{typ: MsgJoin, from: 4, weight: 127}.step(), seedMsg{typ: MsgJoin, from: 4, subject: 6, weight: 111}.step()))

	// The map-oracle stream: NOTIFYs, half naming the node, monitoring
	// rounds, and MON-ACKs from anyone that answer a probe half the time.
	rng := rand.New(rand.NewSource(71))
	stream := holding()
	for i := 0; i < 2000; i++ {
		m := seedMsg{typ: MsgNotify, from: byte(2 + rng.Intn(29)), u: byte(rng.Intn(41)), v: byte(rng.Intn(41))}
		switch rng.Intn(8) {
		case 0:
			stream = slices.Concat(stream, minute, monitorTick)
		case 1:
			m.typ, m.from, m.seq = MsgMonAck, m.u, byte(rng.Intn(3)+240*rng.Intn(2))
		case 2, 3:
			m.u = 1
		case 4, 5:
			m.v = 1
		}
		stream = append(stream, m.step()...)
	}
	f.Add(int64(1), uint16(6), stream)
	f.Add(int64(1), uint16(6|1<<13), stream) // conf bits above 12 are ignored

	// A node with a view, targets and monitors (and acks of seq 0 before
	// any probe): with probes out, it takes each message type, in range or
	// not, claiming to come from itself, then the same from None — the
	// sender rule answers only a query from itself.
	life := holding(2)
	for b := byte(3); b < 12; b++ {
		life = slices.Concat(life, seedMsg{typ: MsgNotify, from: b, u: 1, v: b}.step(),
			seedMsg{typ: MsgNotify, from: b, u: b, v: 1}.step(), seedMsg{typ: MsgMonAck, from: b}.step())
	}
	for typ := MsgType(0); typ < 16; typ++ {
		self := seedMsg{typ: typ, from: 1, subject: 5, u: 1, v: 5, weight: 4, seq: 240, nonce: 9, count: 2, view: []byte{3, 4, 1}}.step()
		f.Add(int64(typ), uint16(6|confPR2), slices.Concat(life, minute, tick, monitorTick, self, []byte{self[0], 0}, self[2:]))
	}
	// Under forgetful pinging: rounds unanswered past τ, acks of recent
	// probes, a leave and a three-minute rejoin.
	acks := slices.Clone(life)
	for round := 0; round < 12; round++ {
		acks = slices.Concat(acks, minute, monitorTick)
		for b := byte(3); round%4 == 3 && b < 12; b++ {
			acks = append(acks, seedMsg{typ: MsgMonAck, from: b, seq: 240 + b%9}.step()...)
		}
		if round == 6 {
			acks = append(acks, 5|2<<3, 2)
		}
	}
	f.Add(int64(4), uint16(6|confForgetful), acks)
	// Periods in which only PONGs arrive: PR2 fires every second one, and
	// the eighth without a coarse contact walks back into the overlay.
	periods := holding(2)
	for i := 0; i < 10; i++ {
		periods = slices.Concat(periods, minute, tick, seedMsg{typ: MsgPong, from: 2, seq: 241}.step())
	}
	f.Add(int64(5), uint16(6|confPR2), periods)

	// Probes out to targets 3…11, then a MON-ACK from each for each of the
	// last six sequence numbers plus 2³²: none is a probe, though some
	// match one in the low 32 bits; then the last nine in range, which
	// answer every probe.
	ackAll := func(seq, count byte) (acks []byte) {
		for b := byte(3); b < 12; b++ {
			for k := byte(0); k < count; k++ {
				acks = append(acks, seedMsg{typ: MsgMonAck, from: b, seq: seq + k}.step()...)
			}
		}
		return acks
	}
	f.Add(int64(6), uint16(6), slices.Concat(life, minute, monitorTick, ackAll(250, 6), ackAll(240, 9)))
	// Forgetful cycles with no clock advance between a tick and its acks:
	// six answered rounds make a five-minute session, then the targets go
	// quiet, fall down and are probed, past τ, at odds that session sets;
	// one more answered round, and down again.
	cycle := slices.Clone(life)
	for round := 0; round < 20; round++ {
		cycle = slices.Concat(cycle, minute, monitorTick)
		if round < 6 || round == 13 {
			cycle = append(cycle, ackAll(240, 9)...)
		}
	}
	f.Add(int64(8), uint16(6|confForgetful), cycle)
	// A node that is not yet born, then joins twice with no leave between:
	// the second JOIN's weight reads a last leave that never happened.
	f.Add(int64(9), uint16(6), slices.Concat([]byte{0}, holding(2), minute, []byte{3, 4}))
	// The forgetful cycles with the retired bit 12 set: once they ran
	// under a node that withheld its probes of odd-indexed targets; now
	// the bit is ignored and they run honestly.
	f.Add(int64(8), uint16(6|confForgetful|confRetired), cycle)
	// Forgetful rounds, then periods in which only PONGs arrive, with
	// the monitoring period twice the protocol period: targets never
	// seen up for a whole session are probed at odds whose floor is one
	// monitoring period, and the node re-bootstraps eight protocol
	// periods after its last coarse contact.
	f.Add(int64(1), uint16(6|confForgetful|confSlowMonitor), slices.Concat(acks, periods[len(holding(2)):]))
}
