package simnet

import (
	"testing"
	"time"

	"avmon/internal/ids"
	"avmon/internal/sim"
)

type rec struct {
	from ids.ID
	msg  any
	size int
	at   time.Duration
}

func newPair(t *testing.T, eng *sim.Engine, opts ...Option) (*Network, *Endpoint, *Endpoint, *[]rec) {
	t.Helper()
	n, err := New(eng, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var got []rec
	a, err := n.Attach(ids.Sim(1), func(ids.ID, any, int, time.Time) {})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(ids.Sim(2), func(from ids.ID, msg any, size int, now time.Time) {
		got = append(got, rec{from, msg, size, now.Sub(sim.Epoch)})
	})
	if err != nil {
		t.Fatal(err)
	}
	a.SetAlive(true)
	b.SetAlive(true)
	return n, a, b, &got
}

// withConstantLatency is the option for a network whose every message
// takes exactly d.
func withConstantLatency(t *testing.T, d time.Duration) Option {
	t.Helper()
	m, err := NewConstantLatency(d)
	if err != nil {
		t.Fatal(err)
	}
	return WithLatencyModel(m)
}

func TestDeliveryBetweenAliveNodes(t *testing.T) {
	eng := sim.New(1)
	_, a, b, got := newPair(t, eng, withConstantLatency(t, 50*time.Millisecond))
	a.Send(b.ID(), "hello", 12)
	eng.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(*got))
	}
	r := (*got)[0]
	if r.from != a.ID() || r.msg != "hello" || r.size != 12 {
		t.Errorf("got %+v", r)
	}
	if r.at != 50*time.Millisecond {
		t.Errorf("delivered at %v, want 50ms", r.at)
	}
}

func TestNoDeliveryToDeadNode(t *testing.T) {
	eng := sim.New(1)
	_, a, b, got := newPair(t, eng)
	b.SetAlive(false)
	a.Send(b.ID(), "x", 8)
	eng.Run()
	if len(*got) != 0 {
		t.Fatal("message delivered to dead node")
	}
	c := a.Counters()
	if c.UselessMsgs != 1 || c.UselessBytes != 8 {
		t.Errorf("useless counters = %d msgs / %d bytes, want 1/8", c.UselessMsgs, c.UselessBytes)
	}
	if c.BytesOut != 8 || c.MsgsOut != 1 {
		t.Errorf("outgoing still counted: got %d msgs / %d bytes, want 1/8", c.MsgsOut, c.BytesOut)
	}
}

func TestNodeDiesWhileMessageInFlight(t *testing.T) {
	eng := sim.New(1)
	_, a, b, got := newPair(t, eng, withConstantLatency(t, 100*time.Millisecond))
	a.Send(b.ID(), "x", 8)
	eng.RunFor(10 * time.Millisecond)
	b.SetAlive(false) // dies before delivery
	eng.Run()
	if len(*got) != 0 {
		t.Fatal("in-flight message delivered to node that died")
	}
	// Uselessness is decided at delivery time — the only point where
	// the destination's liveness is deterministically known to a
	// sharded scheduler — so a message whose destination died in
	// flight IS charged to the sender (it was never delivered).
	if a.Counters().UselessMsgs != 1 {
		t.Error("message undelivered due to in-flight death not counted as useless")
	}
}

func TestUndeliveredCallback(t *testing.T) {
	eng := sim.New(1)
	type miss struct {
		from *Endpoint
		to   ids.ID
		size int
	}
	var misses []miss
	_, a, b, _ := newPair(t, eng, WithUndelivered(func(from *Endpoint, to ids.ID, _ any, size int) {
		misses = append(misses, miss{from, to, size})
	}))
	b.SetAlive(false)
	a.Send(b.ID(), "x", 8)      // known but dead: classified at delivery
	a.Send(ids.Sim(99), "y", 4) // unknown: classified at send
	eng.Run()
	if len(misses) != 2 {
		t.Fatalf("undelivered callback fired %d times, want 2", len(misses))
	}
	for _, m := range misses {
		// The callback recovers the sender's own state through what it
		// attached with.
		if _, ok := m.from.Receiver().(Handler); m.from != a || !ok {
			t.Errorf("undelivered from = %v (receiver %T), want endpoint a and its Handler", m.from.ID(), m.from.Receiver())
		}
	}
	if misses[0].to != ids.Sim(99) || misses[1].to != b.ID() {
		// The unknown destination is charged synchronously at send
		// time; the dead-but-known one at delivery time.
		t.Errorf("undelivered order = %v, %v", misses[0].to, misses[1].to)
	}
}

func TestSendFromDeadNodeIgnored(t *testing.T) {
	eng := sim.New(1)
	_, a, b, got := newPair(t, eng)
	a.SetAlive(false)
	a.Send(b.ID(), "x", 8)
	eng.Run()
	if len(*got) != 0 {
		t.Fatal("dead node transmitted a message")
	}
	if a.Counters().MsgsOut != 0 {
		t.Error("dead node accumulated outgoing counters")
	}
}

func TestByteAccounting(t *testing.T) {
	eng := sim.New(1)
	_, a, b, _ := newPair(t, eng)
	for i := 0; i < 5; i++ {
		a.Send(b.ID(), i, 10)
	}
	eng.Run()
	if got := a.Counters().BytesOut; got != 50 {
		t.Errorf("BytesOut = %d, want 50", got)
	}
	if got := b.Counters().BytesIn; got != 50 {
		t.Errorf("BytesIn = %d, want 50", got)
	}
	if got := b.Counters().MsgsIn; got != 5 {
		t.Errorf("MsgsIn = %d, want 5", got)
	}
	a.ResetCounters()
	if a.Counters().BytesOut != 0 {
		t.Error("ResetCounters did not zero counters")
	}
}

func TestLossInjection(t *testing.T) {
	eng := sim.New(7)
	loss, err := NewBernoulliLoss(0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, a, b, got := newPair(t, eng, WithLossModel(loss))
	const total = 2000
	for i := 0; i < total; i++ {
		a.Send(b.ID(), i, 1)
	}
	eng.Run()
	delivered := len(*got)
	if delivered == 0 || delivered == total {
		t.Fatalf("delivered %d of %d with 50%% loss", delivered, total)
	}
	if frac := float64(delivered) / total; frac < 0.4 || frac > 0.6 {
		t.Errorf("delivery fraction %.3f, want ≈ 0.5", frac)
	}
	if a.Counters().Dropped == 0 {
		t.Error("Dropped counter not incremented")
	}
}

func TestAttachValidation(t *testing.T) {
	eng := sim.New(1)
	n, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(ids.None, nil); err == nil {
		t.Error("Attach(None) succeeded")
	}
	if _, err := n.Attach(ids.Sim(1), func(ids.ID, any, int, time.Time) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(ids.Sim(1), func(ids.ID, any, int, time.Time) {}); err == nil {
		t.Error("duplicate Attach succeeded")
	}
}

func TestAliveOracle(t *testing.T) {
	eng := sim.New(1)
	n, a, b, _ := newPair(t, eng)
	if !n.Alive(a.ID()) || !n.Alive(b.ID()) {
		t.Error("alive endpoints reported dead")
	}
	b.SetAlive(false)
	if n.Alive(b.ID()) {
		t.Error("dead endpoint reported alive")
	}
	if n.Alive(ids.Sim(99)) {
		t.Error("unknown endpoint reported alive")
	}
	live := n.AliveIDs()
	if len(live) != 1 || live[0] != a.ID() {
		t.Errorf("AliveIDs = %v, want [%v]", live, a.ID())
	}
}

func TestRandomAlive(t *testing.T) {
	eng := sim.New(3)
	n, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	var eps []*Endpoint
	for i := 0; i < 10; i++ {
		ep, err := n.Attach(ids.Sim(i), func(ids.ID, any, int, time.Time) {})
		if err != nil {
			t.Fatal(err)
		}
		ep.SetAlive(true)
		eps = append(eps, ep)
	}
	// Excluded node never returned; all others eventually seen.
	seen := make(map[ids.ID]bool)
	for i := 0; i < 500; i++ {
		id := n.RandomAlive(ids.Sim(0))
		if id == ids.Sim(0) {
			t.Fatal("RandomAlive returned the excluded node")
		}
		if id.IsNone() {
			t.Fatal("RandomAlive returned None with alive nodes present")
		}
		seen[id] = true
	}
	if len(seen) != 9 {
		t.Errorf("RandomAlive covered %d of 9 candidates", len(seen))
	}
	// All dead: None.
	for _, ep := range eps {
		ep.SetAlive(false)
	}
	if got := n.RandomAlive(ids.None); !got.IsNone() {
		t.Errorf("RandomAlive with all dead = %v, want None", got)
	}
}
