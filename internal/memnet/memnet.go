// Package memnet is an in-process loopback network for running many
// real avmon.Service instances in one process: every endpoint is a
// full Transport (Send / Serve / Close) whose datagrams pass through
// the real netstack codec, but delivery happens through in-memory
// inboxes instead of UDP sockets. The network reuses the simulator's
// latency and loss models (internal/simnet: constant, lognormal,
// zone-matrix latency; Bernoulli and Gilbert-Elliott loss) and replays
// their draws in wall clock — a message drawn at 30 ms latency is
// delivered ~30 ms later by a single delivery-wheel goroutine.
//
// An inbox is a bounded FIFO that allocates only for the datagrams
// waiting in it, so an idle endpoint costs a few hundred bytes whatever
// its InboxDepth, and a drained burst gives its storage back.
//
// This is the mocknet half of the mocknet→realnet test progression:
// the same Service code, the same assertions, a swappable transport.
// Compared to 127.0.0.1 UDP sockets, memnet removes the file-
// descriptor ceiling (thousands of nodes per process), adds fault
// injection, and counts every datagram — sent, lost, unroutable,
// overflowed, malformed — so an observer can account for traffic
// without packet capture.
package memnet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"avmon/internal/core"
	"avmon/internal/ids"
	"avmon/internal/netstack"
	"avmon/internal/simnet"
)

// DefaultInboxDepth bounds each endpoint's receive queue when
// Config.InboxDepth is zero. A full inbox drops the datagram (counted
// in InboxOverflows), mirroring a UDP socket buffer overflow.
const DefaultInboxDepth = 1024

// Config parameterizes a Network.
type Config struct {
	// Latency draws per-message delivery delays in wall clock; nil
	// delivers immediately (still asynchronously, through the
	// destination inbox). The simnet models plug in directly.
	Latency simnet.LatencyModel
	// Loss decides per-message drops; nil is lossless. Gilbert-Elliott
	// burst state is kept per sending endpoint, as in the simulator.
	Loss simnet.LossModel
	// Seed seeds the network's latency/loss randomness; 0 uses the
	// clock. (Wall-clock delivery makes runs non-deterministic either
	// way; the seed fixes only the draw sequence.)
	Seed int64
	// InboxDepth bounds how many datagrams may wait in each endpoint's
	// receive queue (0 = DefaultInboxDepth). It is a bound, not a
	// reservation: a queue holds memory only for its waiting datagrams.
	InboxDepth int
}

// Stats are the network-wide drop counters (per-endpoint counters live
// on each Transport).
type Stats struct {
	// LossDrops counts messages dropped by the loss model.
	LossDrops uint64
	// UnroutableDrops counts messages sent to identities with no
	// registered (or an already-closed) endpoint.
	UnroutableDrops uint64
	// InboxOverflows counts messages dropped because the destination
	// inbox was full, summed over all endpoints.
	InboxOverflows uint64
}

// delivery is one in-flight datagram waiting on the delivery wheel.
type delivery struct {
	at  time.Time
	seq uint64 // FIFO tie-break for equal deadlines
	dst *Transport
	buf []byte
}

// before orders deliveries by deadline, then by send order.
func (d *delivery) before(e *delivery) bool {
	if !d.at.Equal(e.at) {
		return d.at.Before(e.at)
	}
	return d.seq < e.seq
}

// wheel is the pending-delivery min-heap, ordered by (at, seq). It holds
// deliveries by value: push and pop allocate nothing once the slice has
// grown.
type wheel []delivery

func (w *wheel) push(d delivery) {
	q := append(*w, d)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*w = q
}

// pop removes and returns the earliest delivery; the wheel must not be
// empty.
func (w *wheel) pop() delivery {
	q := *w
	d := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = delivery{} // the vacated slot must not pin the datagram
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*w = q
	return d
}

// Network is the in-process loopback hub. Create with New, mint
// endpoints with Listen, and Close when done. All methods are safe for
// concurrent use.
type Network struct {
	cfg   Config
	depth int

	mu     sync.Mutex
	rng    *rand.Rand // latency/loss draws, guarded by mu
	eps    map[ids.ID]*Transport
	queue  wheel
	seq    uint64
	closed bool

	wake chan struct{}
	quit chan struct{}
	done sync.WaitGroup

	lossDrops       uint64 // atomics
	unroutableDrops uint64
	inboxOverflows  uint64
}

// New builds a Network and starts its delivery wheel.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	depth := cfg.InboxDepth
	if depth <= 0 {
		depth = DefaultInboxDepth
	}
	n := &Network{
		cfg:   cfg,
		depth: depth,
		rng:   rand.New(rand.NewSource(seed)),
		eps:   make(map[ids.ID]*Transport),
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	n.done.Add(1)
	go n.dispatch()
	return n
}

// Listen registers a new endpoint for id. Each identity may be bound
// at most once at a time; closing the endpoint frees it.
func (n *Network) Listen(id ids.ID) (*Transport, error) {
	if id.IsNone() {
		return nil, fmt.Errorf("memnet: cannot listen on the None identity")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("memnet: network is closed")
	}
	if _, dup := n.eps[id]; dup {
		return nil, fmt.Errorf("memnet: %v is already bound", id)
	}
	t := &Transport{
		id:    id,
		net:   n,
		ready: make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	n.eps[id] = t
	return t, nil
}

// Stats returns the network-wide drop counters.
func (n *Network) Stats() Stats {
	return Stats{
		LossDrops:       atomic.LoadUint64(&n.lossDrops),
		UnroutableDrops: atomic.LoadUint64(&n.unroutableDrops),
		InboxOverflows:  atomic.LoadUint64(&n.inboxOverflows),
	}
}

// Close shuts down the delivery wheel and every endpoint still open.
// In-flight datagrams are discarded.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*Transport, 0, len(n.eps))
	for _, t := range n.eps {
		eps = append(eps, t)
	}
	n.queue = nil
	n.mu.Unlock()
	close(n.quit)
	n.done.Wait()
	for _, t := range eps {
		_ = t.Close()
	}
}

// send routes one encoded datagram: loss and latency draws under the
// network lock (from the shared stream, with per-sender loss state),
// then either immediate handoff or the delivery wheel.
func (n *Network) send(src *Transport, to ids.ID, buf []byte) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	if n.cfg.Loss != nil && n.cfg.Loss.Drop(&src.lossSt, n.rng) {
		n.mu.Unlock()
		atomic.AddUint64(&n.lossDrops, 1)
		return
	}
	var delay time.Duration
	if n.cfg.Latency != nil {
		delay = n.cfg.Latency.Latency(src.id, to, n.rng)
	}
	if delay <= 0 {
		dst := n.eps[to]
		n.mu.Unlock()
		n.handoff(dst, buf)
		return
	}
	dst := n.eps[to]
	if dst == nil {
		n.mu.Unlock()
		atomic.AddUint64(&n.unroutableDrops, 1)
		return
	}
	n.seq++
	n.queue.push(delivery{at: time.Now().Add(delay), seq: n.seq, dst: dst, buf: buf})
	isHead := n.queue[0].seq == n.seq
	n.mu.Unlock()
	if isHead {
		// The wheel may be sleeping past the new earliest deadline.
		select {
		case n.wake <- struct{}{}:
		default:
		}
	}
}

// handoff appends a datagram to the destination inbox, dropping it if
// the destination is gone or InboxDepth datagrams already wait there.
// It never blocks on the receiver: the inbox lock is held only for the
// append, never while Serve's handler runs.
func (n *Network) handoff(dst *Transport, buf []byte) {
	if dst == nil {
		atomic.AddUint64(&n.unroutableDrops, 1)
		return
	}
	dst.mu.Lock()
	if dst.waiting.Load() >= int64(n.depth) {
		dst.mu.Unlock()
		atomic.AddUint64(&n.inboxOverflows, 1)
		atomic.AddUint64(&dst.inboxDrops, 1)
		return
	}
	dst.waiting.Add(1)
	dst.inbox = append(dst.inbox, buf)
	first := len(dst.inbox) == 1
	dst.mu.Unlock()
	if first {
		// Serve may be parked on an empty inbox. An append to a non-empty
		// inbox needs no wake-up: Serve takes that inbox whole before it
		// parks again.
		select {
		case dst.ready <- struct{}{}:
		default:
		}
	}
}

// dispatch is the delivery wheel: a single goroutine that sleeps until
// the earliest pending deadline and hands due datagrams to their
// destination inboxes.
func (n *Network) dispatch() {
	defer n.done.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var due []delivery // reused across wakes; emptied after each handoff pass
	for {
		n.mu.Lock()
		now := time.Now()
		due = due[:0]
		for len(n.queue) > 0 && !n.queue[0].at.After(now) {
			due = append(due, n.queue.pop())
		}
		wait := time.Hour
		if len(n.queue) > 0 {
			wait = n.queue[0].at.Sub(now)
		}
		n.mu.Unlock()
		for i, d := range due {
			n.handoff(d.dst, d.buf)
			due[i] = delivery{}
		}
		// A spurious stale tick after Reset only causes one extra loop
		// iteration, which is harmless here.
		timer.Reset(wait)
		select {
		case <-n.wake:
		case <-timer.C:
		case <-n.quit:
			return
		}
	}
}

// unregister removes a closing endpoint from the routing table.
func (n *Network) unregister(id ids.ID) {
	n.mu.Lock()
	delete(n.eps, id)
	n.mu.Unlock()
}

// Transport is one memnet endpoint. It satisfies the same contract as
// netstack.UDPTransport (avmon.Transport): best-effort Send, a
// blocking Serve loop, idempotent Close, and scrapeable traffic
// counters.
type Transport struct {
	id   ids.ID
	net  *Network
	quit chan struct{}

	// The inbox: datagrams waiting for Serve, oldest first. handoff
	// appends under mu; Serve takes the whole slice under mu and handles
	// it with mu released. ready holds one wake-up for a Serve that found
	// the inbox empty.
	mu      sync.Mutex
	inbox   [][]byte
	ready   chan struct{}
	waiting atomic.Int64 // handed off and not yet taken by Serve's handler

	closeOnce sync.Once

	lossSt simnet.LossState // guarded by net.mu

	datagramsSent uint64 // atomics
	wireBytes     uint64
	rawBytes      uint64
	dropped       uint64
	inboxDrops    uint64
}

var _ core.Transport = (*Transport)(nil)

// ID returns the bound identity.
func (t *Transport) ID() ids.ID { return t.id }

// Send implements core.Transport: the message is serialized through
// the real wire codec, subjected to the network's loss and latency
// models, and delivered to the destination inbox. Errors are dropped
// by design, exactly as over UDP.
func (t *Transport) Send(to ids.ID, m *core.Message) {
	buf, err := netstack.Encode(m)
	if err != nil {
		return
	}
	select {
	case <-t.quit:
		return
	default:
	}
	atomic.AddUint64(&t.datagramsSent, 1)
	atomic.AddUint64(&t.wireBytes, uint64(m.WireSize()))
	atomic.AddUint64(&t.rawBytes, uint64(len(buf)))
	t.net.send(t, to, buf)
}

// spareCap is the largest batch array Serve keeps for the datagrams
// that follow it; a burst's larger array is garbage once handled.
const spareCap = 16

// Serve reads datagrams and invokes handle for each valid message, in
// arrival order, until Close is called. Malformed datagrams are counted
// and dropped, mirroring the UDP transport.
func (t *Transport) Serve(handle func(from ids.ID, m *core.Message)) error {
	var spare [][]byte // the last batch's array, emptied, if it was small
	for {
		select {
		case <-t.quit:
			return nil
		default:
		}
		t.mu.Lock()
		if len(t.inbox) == 0 {
			if cap(t.inbox) == 0 {
				t.inbox = spare
			}
			t.mu.Unlock()
			// Nothing Serve holds may outlive this point: a parked
			// goroutine's frame would keep a burst's array alive.
			spare = nil
			select {
			case <-t.ready:
			case <-t.quit:
				return nil
			}
			continue
		}
		// Take every waiting datagram at once.
		batch := t.inbox
		t.inbox = spare
		t.mu.Unlock()
		for i, buf := range batch {
			batch[i] = nil
			t.waiting.Add(-1)
			m, err := netstack.Decode(buf)
			if err != nil {
				atomic.AddUint64(&t.dropped, 1)
				continue
			}
			handle(m.From, m)
		}
		spare = nil
		if cap(batch) <= spareCap {
			spare = batch[:0]
		}
	}
}

// Close unregisters the endpoint and unblocks Serve. It is idempotent
// and does not wait for Serve to return: the owner of the Serve
// goroutine joins it, exactly as with the UDP transport.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		t.net.unregister(t.id)
		close(t.quit)
	})
	return nil
}

// DatagramsSent returns how many datagrams this endpoint sent
// (pre-loss: drawn losses still count as sent, as they would on UDP).
func (t *Transport) DatagramsSent() uint64 { return atomic.LoadUint64(&t.datagramsSent) }

// WireBytesSent returns cumulative outgoing traffic under the paper's
// byte-accounting model (Message.WireSize), directly comparable to the
// simulator's per-node BytesOut.
func (t *Transport) WireBytesSent() uint64 { return atomic.LoadUint64(&t.wireBytes) }

// RawBytesSent returns cumulative outgoing traffic in encoded-codec
// bytes (the datagram sizes a real socket would carry).
func (t *Transport) RawBytesSent() uint64 { return atomic.LoadUint64(&t.rawBytes) }

// DroppedDatagrams returns how many received datagrams failed to
// decode and were dropped by Serve.
func (t *Transport) DroppedDatagrams() uint64 { return atomic.LoadUint64(&t.dropped) }

// InboxOverflows returns how many datagrams addressed to this endpoint
// were dropped because its inbox was full.
func (t *Transport) InboxOverflows() uint64 { return atomic.LoadUint64(&t.inboxDrops) }
