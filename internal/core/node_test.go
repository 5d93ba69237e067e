package core

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"avmon/internal/ids"
)

func TestNewNodeValidation(t *testing.T) {
	valid := func() Config {
		return Config{
			ID:        ids.Sim(1),
			Scheme:    allRelated{},
			Transport: &fakeTransport{net: newFakeNet(t), self: ids.Sim(1)},
			Rand:      rand.New(rand.NewSource(1)),
			CVS:       8,
		}
	}
	if _, err := NewNode(valid()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"missing ID", func(c *Config) { c.ID = ids.None }},
		{"missing scheme", func(c *Config) { c.Scheme = nil }},
		{"missing transport", func(c *Config) { c.Transport = nil }},
		{"missing rand", func(c *Config) { c.Rand = nil }},
		{"typed-nil rand", func(c *Config) { c.Rand = (*rand.Rand)(nil) }},
		{"cvs too small", func(c *Config) { c.CVS = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid()
			tt.mut(&cfg)
			if _, err := NewNode(cfg); !errors.Is(err, ErrConfig) {
				t.Errorf("error = %v, want ErrConfig", err)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	fn := newFakeNet(t)
	n := fn.addNode(1, allRelated{}, nil)
	cfg := n.Config()
	if cfg.Period != DefaultPeriod || cfg.MonitorPeriod != DefaultMonitorPeriod {
		t.Errorf("periods = %v/%v", cfg.Period, cfg.MonitorPeriod)
	}
	if cfg.ForgetfulTau != DefaultForgetfulTau || cfg.ForgetfulC != DefaultForgetfulC {
		t.Errorf("forgetful defaults = %v/%v", cfg.ForgetfulTau, cfg.ForgetfulC)
	}
}

// populate builds n alive nodes whose coarse views are pre-seeded with
// random peers, simulating a warmed-up overlay.
func populate(t *testing.T, fn *fakeNet, n int, scheme SelectionScheme, mutate func(*Config)) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = fn.addNode(i, scheme, mutate)
		nodes[i].Join(fn.now, ids.None)
	}
	rng := rand.New(rand.NewSource(77))
	for i, nd := range nodes {
		want := nd.cfg.CVS
		if want > n-1 {
			want = n - 1
		}
		for nd.cv.size() < want {
			j := rng.Intn(n)
			if j != i {
				nd.cv.add(ids.Sim(j))
			}
		}
	}
	fn.queue = nil // drop join traffic from pre-seeding
	return nodes
}

func TestJoinSpreadsToExpectedCVS(t *testing.T) {
	fn := newFakeNet(t)
	nodes := populate(t, fn, 60, noneRelated{}, nil)
	joiner := fn.addNode(100, noneRelated{}, nil)
	joiner.Join(fn.now, nodes[0].ID())
	fn.flush()
	holders := 0
	for _, nd := range nodes {
		if nd.cv.contains(joiner.ID()) {
			holders++
		}
	}
	cvs := joiner.cfg.CVS
	if holders < cvs/2 || holders > cvs {
		t.Errorf("joiner present in %d coarse views, want ≈ cvs = %d", holders, cvs)
	}
}

func TestJoinWeightBudgetNeverExceeded(t *testing.T) {
	// Total adds across the system must never exceed the JOIN weight.
	for seed := 0; seed < 5; seed++ {
		fn := newFakeNet(t)
		nodes := populate(t, fn, 40, noneRelated{}, nil)
		joiner := fn.addNode(200+seed, noneRelated{}, nil)
		joiner.Join(fn.now, nodes[seed].ID())
		fn.flush()
		holders := 0
		for _, nd := range nodes {
			if nd.cv.contains(joiner.ID()) {
				holders++
			}
		}
		if holders > joiner.cfg.CVS {
			t.Errorf("seed %d: %d holders exceeds weight %d", seed, holders, joiner.cfg.CVS)
		}
	}
}

func TestJoinTerminates(t *testing.T) {
	// Even in a tiny population where duplicates abound, the JOIN
	// cascade must terminate (weight strictly decreases on every add,
	// duplicates discard).
	fn := newFakeNet(t)
	nodes := populate(t, fn, 3, noneRelated{}, nil)
	joiner := fn.addNode(300, noneRelated{}, nil)
	joiner.Join(fn.now, nodes[0].ID())
	fn.flush() // would loop forever if the protocol did not terminate
	if got := fn.sent[MsgJoin]; got > 64 {
		t.Errorf("join cascade sent %d messages in a 3-node system", got)
	}
}

func TestRejoinWeightReflectsDowntime(t *testing.T) {
	fn := newFakeNet(t)
	nodes := populate(t, fn, 30, noneRelated{}, nil)
	j := fn.addNode(400, noneRelated{}, nil)
	j.Join(fn.now, nodes[0].ID())
	fn.flush()
	// Leave for 3 protocol periods, then rejoin: weight = min(cvs, 3).
	j.Leave(fn.now)
	fn.now = fn.now.Add(3 * DefaultPeriod)
	var joinMsg *Message
	for _, nd := range fn.nodes {
		_ = nd
	}
	// Capture the JOIN the node emits on rejoin.
	j.Join(fn.now, nodes[1].ID())
	for _, env := range fn.queue {
		if env.msg.Type == MsgJoin && env.from == j.ID() {
			joinMsg = env.msg
		}
	}
	if joinMsg == nil {
		t.Fatal("rejoin emitted no JOIN")
	}
	if joinMsg.Weight != 3 {
		t.Errorf("rejoin weight = %d, want 3 (downtime in periods)", joinMsg.Weight)
	}
}

func TestRejoinWeightCappedAtCVS(t *testing.T) {
	fn := newFakeNet(t)
	nodes := populate(t, fn, 30, noneRelated{}, nil)
	j := fn.addNode(500, noneRelated{}, nil)
	j.Join(fn.now, nodes[0].ID())
	fn.flush()
	j.Leave(fn.now)
	fn.now = fn.now.Add(1000 * DefaultPeriod)
	j.Join(fn.now, nodes[1].ID())
	for _, env := range fn.queue {
		if env.msg.Type == MsgJoin && env.from == j.ID() {
			if env.msg.Weight != j.cfg.CVS {
				t.Errorf("weight = %d, want cvs = %d", env.msg.Weight, j.cfg.CVS)
			}
		}
	}
}

func TestTickRemovesUnresponsiveFromCV(t *testing.T) {
	fn := newFakeNet(t)
	a := fn.addNode(1, noneRelated{}, nil)
	b := fn.addNode(2, noneRelated{}, nil)
	a.Join(fn.now, ids.None)
	b.Join(fn.now, ids.None)
	a.cv.add(b.ID())
	b.Leave(fn.now) // b is dead: pings go unanswered
	// First tick sends the probe; second tick notices no pong.
	fn.advance(2, DefaultPeriod)
	if a.cv.contains(b.ID()) {
		t.Error("dead node still in coarse view after unanswered ping")
	}
}

func TestTickKeepsResponsiveInCV(t *testing.T) {
	fn := newFakeNet(t)
	a := fn.addNode(1, noneRelated{}, nil)
	b := fn.addNode(2, noneRelated{}, nil)
	a.Join(fn.now, ids.None)
	b.Join(fn.now, ids.None)
	a.cv.add(b.ID())
	b.cv.add(a.ID())
	fn.advance(10, DefaultPeriod)
	if !a.cv.contains(b.ID()) {
		t.Error("responsive node evicted from coarse view")
	}
}

// TestStalePongDoesNotSaveMember: only the PONG of the outstanding probe
// confirms a coarse-view member. A member that answered last round's
// probe but not this round's is evicted at the next Tick, even when last
// round's PONG arrives again in between.
func TestStalePongDoesNotSaveMember(t *testing.T) {
	fn := newFakeNet(t)
	a := fn.addNode(1, noneRelated{}, nil)
	a.Join(fn.now, ids.None)
	z := ids.Sim(2) // not on the network: a's probes go unanswered
	a.cv.add(z)
	a.Tick(fn.now)
	answered := a.cvPingSeq
	a.Handle(z, &Message{Type: MsgPong, Seq: answered}, fn.now)
	a.Tick(fn.now.Add(DefaultPeriod))
	if !a.cv.contains(z) || a.cvPingTarget != z || a.cvPingSeq == answered {
		t.Fatalf("setup: an answered member was not kept and probed again (view %v, probing %v)", a.CV(), a.cvPingTarget)
	}
	a.Handle(z, &Message{Type: MsgPong, Seq: answered}, fn.now.Add(DefaultPeriod))
	a.Tick(fn.now.Add(2 * DefaultPeriod))
	if a.cv.contains(z) {
		t.Error("a PONG of last round's probe kept a member that left this round's unanswered")
	}
}

// TestCVRespCapBoundsHashChecks: the sweep reads at most the first 1024
// entries of a CV-RESP, so a forged 4096-entry view costs exactly the
// hash checks of its first 1024.
func TestCVRespCapBoundsHashChecks(t *testing.T) {
	view := make([]ids.ID, 4096)
	for i := range view {
		view[i] = ids.Sim(100 + i)
	}
	checks := func(fetched []ids.ID) uint64 {
		fn := newFakeNet(t)
		a := fn.addNode(1, noneRelated{}, nil)
		a.Join(fn.now, ids.None)
		a.Handle(ids.Sim(2), &Message{Type: MsgCVResp, View: fetched}, fn.now)
		return a.HashChecks()
	}
	capped, long := checks(view[:1024]), checks(view)
	if capped == 0 || long != capped {
		t.Errorf("a 4096-entry CV-RESP cost %d hash checks, want the %d of its first 1024 entries", long, capped)
	}
}

func TestDiscoveryThroughCVExchange(t *testing.T) {
	// With the allRelated scheme, two nodes that exchange coarse views
	// must discover each other: x and w are in both check sets.
	fn := newFakeNet(t)
	a := fn.addNode(1, allRelated{}, nil)
	b := fn.addNode(2, allRelated{}, nil)
	a.Join(fn.now, ids.None)
	b.Join(fn.now, ids.None)
	a.cv.add(b.ID())
	b.cv.add(a.ID())
	fn.advance(2, DefaultPeriod)
	if len(a.PS()) == 0 || len(a.TS()) == 0 {
		t.Errorf("a: PS=%v TS=%v, want both non-empty", a.PS(), a.TS())
	}
	if len(b.PS()) == 0 || len(b.TS()) == 0 {
		t.Errorf("b: PS=%v TS=%v, want both non-empty", b.PS(), b.TS())
	}
	if got := a.DiscoveryTimes(); len(got) == 0 {
		t.Error("no discovery times recorded")
	}
}

func TestForgedNotifyRejected(t *testing.T) {
	fn := newFakeNet(t)
	a := fn.addNode(1, noneRelated{}, nil)
	a.Join(fn.now, ids.None)
	evil := ids.Sim(66)
	// A forged NOTIFY claiming evil ∈ PS(a) and a ∈ PS(evil).
	a.Handle(evil, &Message{Type: MsgNotify, U: evil, V: a.ID()}, fn.now)
	a.Handle(evil, &Message{Type: MsgNotify, U: a.ID(), V: evil}, fn.now)
	if len(a.PS()) != 0 {
		t.Errorf("forged monitor accepted into PS: %v", a.PS())
	}
	if len(a.TS()) != 0 {
		t.Errorf("forged target accepted into TS: %v", a.TS())
	}
}

func TestValidNotifyAccepted(t *testing.T) {
	fn := newFakeNet(t)
	a := fn.addNode(1, allRelated{}, nil)
	a.Join(fn.now, ids.None)
	peer := ids.Sim(2)
	a.Handle(peer, &Message{Type: MsgNotify, U: peer, V: a.ID()}, fn.now)
	if got := a.PS(); len(got) != 1 || got[0] != peer {
		t.Errorf("PS = %v, want [%v]", got, peer)
	}
	a.Handle(peer, &Message{Type: MsgNotify, U: a.ID(), V: peer}, fn.now)
	if got := a.TS(); len(got) != 1 || got[0] != peer {
		t.Errorf("TS = %v, want [%v]", got, peer)
	}
	// Duplicate NOTIFY is idempotent.
	a.Handle(peer, &Message{Type: MsgNotify, U: peer, V: a.ID()}, fn.now)
	if len(a.PS()) != 1 || len(a.DiscoveryTimes()) != 1 {
		t.Error("duplicate NOTIFY re-recorded")
	}
}

func TestMonitoringRecordsAvailability(t *testing.T) {
	fn := newFakeNet(t)
	mon := fn.addNode(1, allRelated{}, nil)
	tgt := fn.addNode(2, allRelated{}, nil)
	mon.Join(fn.now, ids.None)
	tgt.Join(fn.now, ids.None)
	mon.Handle(tgt.ID(), &Message{Type: MsgNotify, U: mon.ID(), V: tgt.ID()}, fn.now)
	// 5 monitored rounds, target alive throughout.
	fn.advance(5, DefaultMonitorPeriod)
	est, known := mon.EstimateOf(tgt.ID())
	if !known || est != 1 {
		t.Fatalf("estimate = %v (known=%v), want 1", est, known)
	}
	// Target dies; unanswered probes drag the estimate down.
	tgt.Leave(fn.now)
	fn.advance(5, DefaultMonitorPeriod)
	est, known = mon.EstimateOf(tgt.ID())
	if !known || est >= 1 || est < 0.3 {
		t.Errorf("estimate after death = %v (known=%v), want in [0.3, 1)", est, known)
	}
	stats := mon.MonitoringStats()
	if stats.Targets != 1 || stats.PingsSent == 0 || stats.Acks == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestForgetfulPingingReducesPings(t *testing.T) {
	run := func(forgetful bool) uint64 {
		fn := newFakeNet(t)
		mon := fn.addNode(1, allRelated{}, func(c *Config) {
			c.Forgetful = forgetful
		})
		tgt := fn.addNode(2, allRelated{}, nil)
		mon.Join(fn.now, ids.None)
		tgt.Join(fn.now, ids.None)
		mon.Handle(tgt.ID(), &Message{Type: MsgNotify, U: mon.ID(), V: tgt.ID()}, fn.now)
		fn.advance(3, DefaultMonitorPeriod) // observe it up briefly
		tgt.Leave(fn.now)
		fn.advance(120, DefaultMonitorPeriod) // two hours dead
		return mon.MonitoringStats().PingsSent
	}
	withOpt := run(true)
	without := run(false)
	if withOpt >= without/2 {
		t.Errorf("forgetful sent %d pings vs %d without; want a large reduction", withOpt, without)
	}
	if withOpt < 3 {
		t.Errorf("forgetful sent only %d pings; target must still be probed occasionally", withOpt)
	}
}

// fixedRand is a Rand whose every Float64 draw is its value; Intn draws
// 0 and Shuffle leaves the order alone.
type fixedRand float64

func (r fixedRand) Float64() float64          { return float64(r) }
func (fixedRand) Intn(int) int                { return 0 }
func (fixedRand) Shuffle(int, func(i, j int)) {}

// TestForgetfulFloorIsMonitorPeriod: a target never seen up for a whole
// session is probed past τ with probability c·TA/(TA+t), the session
// floor being one monitoring period TA, not the protocol period T. With
// TA = 2m, T = 20m and t = 2m that is 0.5 (0.91 with T), so a draw of
// 0.7 saves the probe.
func TestForgetfulFloorIsMonitorPeriod(t *testing.T) {
	fn := newFakeNet(t)
	mon := fn.addNode(1, allRelated{}, func(c *Config) {
		c.Forgetful, c.ForgetfulTau, c.Rand = true, time.Minute, fixedRand(0.7)
		c.Period, c.MonitorPeriod = 20*time.Minute, 2*time.Minute
	})
	tgt := ids.Sim(2) // not on the network: no probe is answered
	mon.Join(fn.now, ids.None)
	mon.Handle(tgt, &Message{Type: MsgNotify, U: mon.ID(), V: tgt}, fn.now)
	mon.MonitorTick(fn.now)
	mon.MonitorTick(fn.now.Add(2 * time.Minute))
	if st := mon.MonitoringStats(); st.PingsSent != 1 || st.PingsSaved != 1 {
		t.Errorf("sent %d, saved %d probes; want 1 and 1: the second, down 2m past a 1m τ, has odds TA/(TA+2m) = 0.5 < 0.7",
			st.PingsSent, st.PingsSaved)
	}
}

// TestStarvationWindowCountsPeriods: a node that hears no coarse-view
// contact re-bootstraps after rebootstrapStarvation protocol periods T,
// whatever the monitoring period TA. Its one member answers every PING,
// which proves the member alive but not that the node sits in anyone's
// view.
func TestStarvationWindowCountsPeriods(t *testing.T) {
	const period = 2 * time.Minute
	fn := newFakeNet(t)
	a := fn.addNode(1, noneRelated{}, func(c *Config) { c.Period, c.MonitorPeriod = period, time.Minute })
	a.Join(fn.now, ids.None)
	z := ids.Sim(2)
	a.cv.add(z)
	for k := 1; k <= 2*rebootstrapStarvation; k++ {
		now := fn.now.Add(time.Duration(k) * period)
		a.Tick(now)
		if fn.sent[MsgJoin] > 0 {
			if k != rebootstrapStarvation {
				t.Errorf("re-bootstrapped at the tick %d periods after the last contact, want %d", k, rebootstrapStarvation)
			}
			return
		}
		a.Handle(z, &Message{Type: MsgPong, Seq: a.cvPingSeq}, now)
	}
	t.Errorf("no re-bootstrap within %d periods", 2*rebootstrapStarvation)
}

func TestForgetfulTargetRediscoveredOnRejoin(t *testing.T) {
	fn := newFakeNet(t)
	mon := fn.addNode(1, allRelated{}, func(c *Config) { c.Forgetful = true })
	tgt := fn.addNode(2, allRelated{}, nil)
	mon.Join(fn.now, ids.None)
	tgt.Join(fn.now, ids.None)
	mon.Handle(tgt.ID(), &Message{Type: MsgNotify, U: mon.ID(), V: tgt.ID()}, fn.now)
	fn.advance(3, DefaultMonitorPeriod)
	tgt.Leave(fn.now)
	fn.advance(30, DefaultMonitorPeriod)
	tgt.Join(fn.now, mon.ID())
	fn.advance(30, DefaultMonitorPeriod)
	// Once the target answers again, the session bookkeeping resumes:
	// the monitor must have recorded new acks after the rejoin.
	st := mon.MonitoringStats()
	if st.Acks < 5 {
		t.Errorf("acks after rejoin = %d, want several", st.Acks)
	}
}

func TestPR2RepairsIndegree(t *testing.T) {
	fn := newFakeNet(t)
	x := fn.addNode(1, noneRelated{}, func(c *Config) { c.PR2 = true })
	peers := make([]*Node, 4)
	for i := range peers {
		peers[i] = fn.addNode(10+i, noneRelated{}, nil)
		peers[i].Join(fn.now, ids.None)
	}
	x.Join(fn.now, ids.None)
	for _, p := range peers {
		x.cv.add(p.ID())
	}
	// Nobody monitors x (noneRelated), so after 2 periods x forces
	// itself into its members' views.
	fn.advance(3, DefaultPeriod)
	holders := 0
	for _, p := range peers {
		if p.cv.contains(x.ID()) {
			holders++
		}
	}
	if holders == 0 {
		t.Error("PR2 did not insert the node into any member's coarse view")
	}
}

func TestPR2SuppressedByMonitoringPings(t *testing.T) {
	fn := newFakeNet(t)
	x := fn.addNode(1, noneRelated{}, func(c *Config) { c.PR2 = true })
	peer := fn.addNode(2, noneRelated{}, nil)
	x.Join(fn.now, ids.None)
	peer.Join(fn.now, ids.None)
	x.cv.add(peer.ID())
	// Deliver a monitoring ping each round: PR2 must stay quiet.
	for i := 0; i < 5; i++ {
		fn.now = fn.now.Add(DefaultPeriod)
		x.Handle(peer.ID(), &Message{Type: MsgMonPing, Seq: uint64(i + 1)}, fn.now)
		x.Tick(fn.now)
		fn.flush()
	}
	if got := fn.sent[MsgPR2]; got != 0 {
		t.Errorf("PR2 sent %d messages despite receiving monitoring pings", got)
	}
}

// TestPR2FromSelfIgnored: a PR2's sender is whatever the datagram
// claims. One claiming to be the receiver must not put the node into
// its own coarse view, from where it would ping, fetch from and (under
// PR2) send PR2 to itself.
func TestPR2FromSelfIgnored(t *testing.T) {
	fn := newFakeNet(t)
	x := fn.addNode(1, noneRelated{}, func(c *Config) { c.PR2 = true })
	peer := fn.addNode(5, noneRelated{}, nil)
	x.Join(fn.now, ids.None)
	peer.Join(fn.now, ids.None)
	x.cv.add(peer.ID())
	x.Handle(x.ID(), &Message{Type: MsgPR2}, fn.now)
	for period := 0; period < 3; period++ {
		if err := checkInvariants(x, nil, nil); err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
		fn.now = fn.now.Add(DefaultPeriod)
		x.Tick(fn.now)
		for _, env := range fn.queue {
			if env.from == x.ID() && env.to == x.ID() {
				t.Fatalf("period %d: the node sent itself a %v", period, env.msg.Type)
			}
		}
		fn.flush()
	}
}

func TestHandleWhileDeadDropped(t *testing.T) {
	fn := newFakeNet(t)
	a := fn.addNode(1, allRelated{}, nil)
	// Never joined: all messages dropped.
	a.Handle(ids.Sim(2), &Message{Type: MsgNotify, U: ids.Sim(2), V: a.ID()}, fn.now)
	if len(a.PS()) != 0 {
		t.Error("dead node processed a message")
	}
}

func TestMemoryEntriesAccounting(t *testing.T) {
	fn := newFakeNet(t)
	a := fn.addNode(1, allRelated{}, nil)
	a.Join(fn.now, ids.None)
	a.cv.add(ids.Sim(5))
	a.cv.add(ids.Sim(6))
	a.Handle(ids.Sim(7), &Message{Type: MsgNotify, U: ids.Sim(7), V: a.ID()}, fn.now)
	a.Handle(ids.Sim(8), &Message{Type: MsgNotify, U: a.ID(), V: ids.Sim(8)}, fn.now)
	if got := a.MemoryEntries(); got != 4 {
		t.Errorf("MemoryEntries = %d, want 4 (2 CV + 1 PS + 1 TS)", got)
	}
}

func TestHashChecksCounted(t *testing.T) {
	fn := newFakeNet(t)
	a := fn.addNode(1, noneRelated{}, nil)
	a.Join(fn.now, ids.None)
	for i := 0; i < 4; i++ {
		a.cv.add(ids.Sim(10 + i))
	}
	view := []ids.ID{ids.Sim(20), ids.Sim(21), ids.Sim(22)}
	before := a.HashChecks()
	a.handleCVResp(ids.Sim(30), view, fn.now)
	checks := a.HashChecks() - before
	// |A| = 4+2 = 6, |B| = 3+2 = 5, distinct ordered cross pairs ≤ 2·6·5.
	if checks == 0 || checks > 60 {
		t.Errorf("hash checks = %d, want in (0, 60]", checks)
	}
}

func TestCVRespReshufflesView(t *testing.T) {
	fn := newFakeNet(t)
	a := fn.addNode(1, noneRelated{}, nil)
	a.Join(fn.now, ids.None)
	w := ids.Sim(50)
	view := []ids.ID{ids.Sim(51), ids.Sim(52)}
	a.handleCVResp(w, view, fn.now)
	cv := a.CV()
	if len(cv) != 3 {
		t.Fatalf("CV after resp = %v, want the 2 fetched entries plus w", cv)
	}
	want := map[ids.ID]bool{w: true, ids.Sim(51): true, ids.Sim(52): true}
	for _, id := range cv {
		if !want[id] {
			t.Errorf("unexpected CV entry %v", id)
		}
	}
}

func TestWireSizes(t *testing.T) {
	tests := []struct {
		m    Message
		want int
	}{
		{Message{Type: MsgPing}, 8},
		{Message{Type: MsgJoin}, 18},
		{Message{Type: MsgNotify}, 24},
		{Message{Type: MsgCVResp, View: make([]ids.ID, 10)}, 88},
		{Message{Type: MsgReportResp, View: make([]ids.ID, 3)}, 32},
		{Message{Type: MsgAvailBatchReq, View: make([]ids.ID, 1)}, 16},
		{Message{Type: MsgAvailBatchResp, View: make([]ids.ID, 1)}, 24},
		{Message{Type: MsgMonPing}, 8},
	}
	for _, tt := range tests {
		if got := tt.m.WireSize(); got != tt.want {
			t.Errorf("WireSize(%v) = %d, want %d", tt.m.Type, got, tt.want)
		}
	}
}

func TestMsgTypeStrings(t *testing.T) {
	types := []MsgType{
		MsgJoin, MsgPing, MsgPong, MsgCVFetch, MsgCVResp, MsgNotify,
		MsgMonPing, MsgMonAck, MsgPR2, MsgReportReq, MsgReportResp,
		MsgAvailBatchReq, MsgAvailBatchResp,
	}
	seen := make(map[string]bool)
	for _, mt := range types {
		s := mt.String()
		if s == "UNKNOWN" || seen[s] {
			t.Errorf("MsgType %d stringifies to %q", mt, s)
		}
		seen[s] = true
	}
	if MsgType(200).String() != "UNKNOWN" {
		t.Error("unknown type not UNKNOWN")
	}
}

// TestJoinRejectsForgedSubjectAndWeight: netstack.Decode accepts a JOIN
// with an all-zero subject and any int32 weight. The view refuses to
// hold None, so such a walk never deduplicates and every hop would
// forward two more — ≈ Weight datagrams from one forged one. The
// receiver drops it, and clamps the weight of a JOIN that does name
// somebody.
func TestJoinRejectsForgedSubjectAndWeight(t *testing.T) {
	fn := newFakeNet(t)
	nodes := populate(t, fn, 40, noneRelated{}, nil)
	forger := ids.New(203, 0, 113, 9, 4000)
	nodes[0].Handle(forger, &Message{Type: MsgJoin, Subject: ids.None, Weight: 1 << 30}, fn.now)
	if got := fn.sent[MsgJoin]; got != 0 {
		t.Fatalf("a JOIN naming nobody was forwarded %d times, want dropped", got)
	}
	nodes[0].Handle(forger, &Message{Type: MsgJoin, Subject: ids.Sim(500), Weight: 1 << 30}, fn.now)
	if len(fn.queue) != 2 {
		t.Fatalf("a JOIN for a new subject forwarded %d times, want 2", len(fn.queue))
	}
	if l, r := fn.queue[0].msg.Weight, fn.queue[1].msg.Weight; l+r != maxJoinWeight-1 {
		t.Errorf("forged weight 2^30 forwarded as %d + %d, want the clamped %d split", l, r, maxJoinWeight-1)
	}
	fn.flush()
	// Every node accepts the subject once and forwards at most twice.
	if got := fn.sent[MsgJoin]; got > 2*len(nodes) {
		t.Errorf("the clamped walk sent %d JOINs across %d nodes", got, len(nodes))
	}
}
