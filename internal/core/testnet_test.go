package core

import (
	"math/rand"
	"testing"
	"time"

	"avmon/internal/hashing"
	"avmon/internal/ids"
)

// fakeNet is a zero-latency in-memory transport for unit tests. Sends
// enqueue; flush delivers (including cascades) in FIFO order. Only
// alive destinations receive. Query responses are the owner's, as a
// Service's are: flush collects them in responses instead.
type fakeNet struct {
	t         *testing.T
	nodes     map[ids.ID]*Node
	queue     []envelope
	responses []envelope
	now       time.Time
	sent      map[MsgType]int
}

type envelope struct {
	from, to ids.ID
	msg      *Message
}

func newFakeNet(t *testing.T) *fakeNet {
	return &fakeNet{
		t:     t,
		nodes: make(map[ids.ID]*Node),
		now:   time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC),
		sent:  make(map[MsgType]int),
	}
}

type fakeTransport struct {
	net  *fakeNet
	self ids.ID
}

func (f *fakeTransport) Send(to ids.ID, m *Message) {
	f.net.sent[m.Type]++
	f.net.queue = append(f.net.queue, envelope{from: f.self, to: to, msg: m})
}

// addNode creates a node wired to the fake network.
func (fn *fakeNet) addNode(i int, scheme SelectionScheme, mutate func(*Config)) *Node {
	id := ids.Sim(i)
	cfg := Config{
		ID:     id,
		Scheme: scheme,
		Rand:   rand.New(rand.NewSource(int64(i) + 1)),
		CVS:    8,
	}
	cfg.Transport = &fakeTransport{net: fn, self: id}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		fn.t.Fatalf("NewNode: %v", err)
	}
	fn.nodes[id] = n
	return n
}

// flush delivers queued messages (and any cascades) until quiescent.
func (fn *fakeNet) flush() {
	for len(fn.queue) > 0 {
		env := fn.queue[0]
		fn.queue = fn.queue[1:]
		dst, ok := fn.nodes[env.to]
		switch {
		case !ok || !dst.alive:
		case env.msg.Type == MsgReportResp || env.msg.Type == MsgAvailBatchResp:
			fn.responses = append(fn.responses, env)
		default:
			dst.Handle(env.from, env.msg, fn.now)
		}
	}
}

// advance moves fake time forward and ticks every alive node once per
// elapsed period, flushing between rounds.
func (fn *fakeNet) advance(periods int, period time.Duration) {
	for i := 0; i < periods; i++ {
		fn.now = fn.now.Add(period)
		for _, n := range fn.nodes {
			n.Tick(fn.now)
		}
		fn.flush()
		for _, n := range fn.nodes {
			n.MonitorTick(fn.now)
		}
		fn.flush()
	}
}

func testScheme(t *testing.T, k, n int) SelectionScheme {
	t.Helper()
	sel, err := hashing.NewSelector(hashing.FastHasher{}, k, n)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// allRelated is a degenerate scheme where everyone monitors everyone;
// handy for making discovery deterministic in unit tests.
type allRelated struct{}

func (allRelated) Related(y, x ids.ID) bool { return y != x }
func (allRelated) K() int                   { return 1 << 20 }

// noneRelated is the opposite degenerate scheme.
type noneRelated struct{}

func (noneRelated) Related(y, x ids.ID) bool { return false }
func (noneRelated) K() int                   { return 0 }
