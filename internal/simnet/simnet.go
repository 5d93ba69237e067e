// Package simnet is the simulated network substrate used by the
// trace-driven evaluation (paper Section 5).
//
// It models the paper's system model (Section 3): communication
// between a pair of nodes is reliable and timely iff both nodes are
// currently alive. Message payloads are opaque to the network; callers
// supply the wire size so per-node bandwidth can be accounted exactly
// as the paper does (outgoing bytes per second, including "useless"
// messages sent to absent nodes).
//
// Endpoint state is held in dense indexed tables rather than maps:
// simulated identities (ids.Sim) resolve through a flat slice indexed
// by node number, and the alive population is a swap-remove slice, so
// lookups and uniform alive draws are O(1) regardless of N.
//
// The network follows the sim.Engine's lane discipline, which is what
// lets one simulation run at any shard count with byte-identical
// results:
//
//   - Each endpoint owns one lane; its message handler and delivery
//     events execute on that lane, and its latency/loss draws come
//     from that lane's private random stream.
//   - Aliveness is two copies: the registry (the dense alive table
//     behind RandomAlive/AliveCount, mutated only from control-lane
//     lifecycle events) and the per-endpoint delivery flag (mutated
//     only on the endpoint's own lane). Both transition at the same
//     virtual times; each is read only by its owner.
//   - What a sender or a delivery needs of the *peer* — its lane to post
//     to, its identity — comes from dense tables indexed by interned
//     endpoint index, never from the peer's Endpoint. They grow only in
//     Attach (a barrier) and their entries never change, so any lane
//     may read them.
//   - Whether a message was "useless" (sent toward a dead node) is
//     decided at delivery time on the destination lane — the only
//     point where the destination's liveness is deterministically
//     known to a parallel scheduler — and recorded on the sender's
//     counters with atomic adds (several destination shards may
//     classify one sender's messages concurrently).
package simnet

import (
	"fmt"
	"sync/atomic"
	"time"

	"avmon/internal/ids"
	"avmon/internal/sim"
)

// Receiver is what an endpoint delivers to: Deliver runs on the
// endpoint's lane at virtual time now. A per-node object implements it
// directly, so attaching costs no closure.
type Receiver interface {
	Deliver(from ids.ID, msg any, size int, now time.Time)
}

// Handler is the function form of Receiver.
type Handler func(from ids.ID, msg any, size int, now time.Time)

// Deliver implements Receiver.
func (h Handler) Deliver(from ids.ID, msg any, size int, now time.Time) { h(from, msg, size, now) }

// UndeliveredFunc observes a message that could not be delivered (the
// "useless" traffic of Figure 18). For a known-but-dead destination it
// runs on the destination's lane at delivery time; for a destination
// that was never attached there is no lane to deliver on, so it runs
// synchronously on the sender's lane at send time. Implementations
// must therefore assume no particular lane and touch shared state
// atomically.
type UndeliveredFunc func(from *Endpoint, to ids.ID, msg any, size int)

// Counters accumulates per-endpoint traffic statistics. UselessMsgs
// and UselessBytes are maintained with atomic adds (see the package
// comment); the rest are owned by a single lane.
type Counters struct {
	MsgsOut      uint64 // messages sent
	MsgsIn       uint64 // messages delivered
	BytesOut     uint64 // bytes sent (counted even if the peer is dead)
	BytesIn      uint64 // bytes delivered
	UselessMsgs  uint64 // messages that found their destination dead
	UselessBytes uint64 // bytes of such messages
	Dropped      uint64 // messages lost to random loss injection
}

// Network connects endpoints through a shared discrete-event engine.
type Network struct {
	eng         *sim.Engine
	latency     LatencyModel
	fixed       time.Duration // the constant model's latency, which Send posts without a draw; 0 for any other model
	loss        LossModel     // nil = lossless (no draw per send)
	undelivered UndeliveredFunc

	// Endpoint state is interned: identities resolve to dense uint32
	// indexes (ids.Interner), endpoints live in a flat slice under
	// those indexes, and delivery events reference endpoints by index —
	// two packed words instead of a captured closure per message.
	interner ids.Interner
	eps      []*Endpoint   // dense table indexed by interned index (= attachment order)
	lanes    []sim.LaneRef // route table: where to post for endpoint i
	up       []bool        // delivery flags; entry i is read and written on endpoint i's lane only
	alive    []*Endpoint   // registry: current alive set, swap-remove maintained
}

// Option configures a Network.
type Option func(*Network)

// WithLatencyModel sets the one-way latency model (default: constant
// 50ms). Under a sharded engine the model's MinLatency() must be at
// least the engine's lookahead window; New enforces this.
func WithLatencyModel(m LatencyModel) Option {
	return func(n *Network) { n.latency = m }
}

// WithLossModel sets the loss process (default: lossless). Per-sender
// evolving state (e.g. the Gilbert-Elliott channel state) lives in the
// endpoint; the model itself must be immutable.
func WithLossModel(m LossModel) Option {
	return func(n *Network) { n.loss = m }
}

// WithUndelivered registers a callback for messages that found their
// destination dead or unknown at delivery time.
func WithUndelivered(fn UndeliveredFunc) Option {
	return func(n *Network) { n.undelivered = fn }
}

// New creates a network on the given engine. It enforces the
// adaptive-lookahead contract at construction time: the latency model's
// MinLatency() must be at least the engine's lookahead window (zero
// from sim.New) — otherwise a latency draw could post a delivery inside
// the current window, which the engine would punish with a
// deterministic panic mid-run. Rejecting the pairing here turns that
// runtime violation into an error.
func New(eng *sim.Engine, opts ...Option) (*Network, error) {
	n := &Network{eng: eng}
	n.latency, _ = NewConstantLatency(50 * time.Millisecond)
	for _, o := range opts {
		o(n)
	}
	if c, ok := n.latency.(constantLatency); ok {
		n.fixed = c.d
	}
	if floor := n.latency.MinLatency(); floor < eng.Lookahead() {
		return nil, fmt.Errorf(
			"simnet: latency model floor %v below the engine's %v lookahead",
			floor, eng.Lookahead())
	}
	return n, nil
}

// Engine returns the underlying simulation scheduler.
func (n *Network) Engine() *sim.Engine { return n.eng }

// lookup resolves an identity to its endpoint (nil if unknown).
func (n *Network) lookup(id ids.ID) *Endpoint {
	if idx, ok := n.interner.Index(id); ok {
		return n.eps[idx]
	}
	return nil
}

// Attach registers a new endpoint with the given identity and message
// handler, on a fresh lane. The endpoint starts dead; call SetAlive
// (or the registry/flag pair) to bring it up. Attach only from
// control-lane events or while the engine is quiescent. Attaching a
// duplicate identity is a programming error.
func (n *Network) Attach(id ids.ID, h Handler) (*Endpoint, error) {
	ep := new(Endpoint)
	if err := n.AttachAt(ep, id, h); err != nil {
		return nil, err
	}
	return ep, nil
}

// AttachAt is Attach in place: ep is memory the caller owns (the head
// of a simulated node's block) and must not move or copy afterwards;
// its lane is built inside it.
func (n *Network) AttachAt(ep *Endpoint, id ids.ID, r Receiver) error {
	if id.IsNone() {
		return fmt.Errorf("simnet: cannot attach the None identity")
	}
	if n.lookup(id) != nil {
		return fmt.Errorf("simnet: endpoint %v already attached", id)
	}
	*ep = Endpoint{net: n, recv: r, alivePos: -1, idx: n.interner.Intern(id)}
	n.eng.InitLane(&ep.lane)
	n.eps = append(n.eps, ep)
	n.lanes = append(n.lanes, ep.lane.LaneRef)
	n.up = append(n.up, false)
	return nil
}

// Alive reports whether the identified endpoint exists and is up. It
// is the experiment oracle; protocol code must not use it, and under a
// sharded engine it is valid only while the engine is quiescent.
func (n *Network) Alive(id ids.ID) bool {
	idx, ok := n.interner.Index(id)
	return ok && n.up[idx]
}

// AliveCount returns the number of endpoints in the alive registry.
func (n *Network) AliveCount() int { return len(n.alive) }

// RandomAlive returns a uniformly random registry-alive endpoint
// identity other than exclude, or None if there is no such endpoint.
// It is the bootstrap oracle for the join protocol ("Pick a random
// node y", Figure 1): one random draw from the control stream against
// the dense alive registry, regardless of N. Call only from
// control-lane events or while quiescent.
func (n *Network) RandomAlive(exclude ids.ID) ids.ID {
	count := len(n.alive)
	if ex := n.lookup(exclude); ex != nil && ex.alivePos >= 0 {
		if count <= 1 {
			return ids.None
		}
		// Draw from the alive set with the excluded slot skipped.
		j := n.eng.Rand().Intn(count - 1)
		if j >= ex.alivePos {
			j++
		}
		return n.interner.ID(n.alive[j].idx)
	}
	if count == 0 {
		return ids.None
	}
	return n.interner.ID(n.alive[n.eng.Rand().Intn(count)].idx)
}

// Endpoint is one node's attachment point to the network, with what a
// delivery (Network.Fire) and a send read first. Its identity is the
// interner's entry at idx.
type Endpoint struct {
	recv     Receiver
	counters Counters
	net      *Network
	lane     sim.Lane
	idx      uint32    // interned index in net.eps (the delivery flag is net.up[idx])
	lossSt   LossState // loss-process state, owned by the endpoint's lane
	alivePos int       // registry: index in net.alive while alive, -1 otherwise
}

// ID returns the endpoint's identity.
func (ep *Endpoint) ID() ids.ID { return ep.net.interner.ID(ep.idx) }

// Lane returns the endpoint's execution lane.
func (ep *Endpoint) Lane() *sim.Lane { return &ep.lane }

// Receiver returns what the endpoint was attached with — the caller's
// own per-node state, for UndeliveredFunc callbacks to recover.
func (ep *Endpoint) Receiver() Receiver { return ep.recv }

// Registered reports whether the endpoint is in the alive registry
// (the control-lane view of its liveness).
func (ep *Endpoint) Registered() bool { return ep.alivePos >= 0 }

// SetAliveRegistry adds the endpoint to or removes it from the alive
// registry behind RandomAlive/AliveCount. Call only from control-lane
// events or while quiescent.
func (ep *Endpoint) SetAliveRegistry(alive bool) {
	if (ep.alivePos >= 0) == alive {
		return
	}
	n := ep.net
	if alive {
		ep.alivePos = len(n.alive)
		n.alive = append(n.alive, ep)
		return
	}
	last := len(n.alive) - 1
	moved := n.alive[last]
	n.alive[ep.alivePos] = moved
	moved.alivePos = ep.alivePos
	n.alive[last] = nil
	n.alive = n.alive[:last]
	ep.alivePos = -1
}

// SetAliveFlag raises or lowers the delivery flag. Call only from the
// endpoint's own lane (or while quiescent). Messages in flight toward
// a downed endpoint are silently dropped at delivery time (crash-stop,
// Section 3).
func (ep *Endpoint) SetAliveFlag(alive bool) { ep.net.up[ep.idx] = alive }

// SetAlive updates the registry and the delivery flag together — the
// convenience form for tests and single-threaded harnesses, valid
// while the engine is quiescent. The cluster driver instead updates
// the registry from its control-lane lifecycle events and posts the
// flag change to the endpoint's lane at the same virtual time.
func (ep *Endpoint) SetAlive(alive bool) {
	ep.SetAliveRegistry(alive)
	ep.SetAliveFlag(alive)
}

// Counters returns a snapshot of the endpoint's traffic counters.
// Valid while the engine is quiescent.
func (ep *Endpoint) Counters() Counters {
	c := ep.counters
	c.UselessMsgs = atomic.LoadUint64(&ep.counters.UselessMsgs)
	c.UselessBytes = atomic.LoadUint64(&ep.counters.UselessBytes)
	return c
}

// ResetCounters zeroes the traffic counters (used at the end of
// experiment warm-up). Valid while the engine is quiescent.
func (ep *Endpoint) ResetCounters() { ep.counters = Counters{} }

// Send transmits msg of the given wire size to the identified peer,
// from the sender's lane at the sender's current virtual time. Sends
// from a dead endpoint are ignored. Delivery happens on the
// destination's lane after the network's latency draw, iff the
// destination is alive at that time; a dead (or unknown) destination
// is charged to the sender's useless counters at that point.
func (ep *Endpoint) Send(to ids.ID, msg any, size int) {
	n := ep.net
	if !n.up[ep.idx] {
		return
	}
	ep.counters.MsgsOut++
	ep.counters.BytesOut += uint64(size)
	dst, ok := n.interner.Index(to)
	if !ok {
		// The message still leaves the sender's NIC; there is no lane
		// to deliver on, so the useless classification happens here.
		ep.chargeUseless(to, msg, size)
		return
	}
	if n.loss != nil && n.loss.Drop(&ep.lossSt, ep.lane.Rand()) {
		ep.counters.Dropped++
		return
	}
	now := n.eng.LaneNow(&ep.lane)
	d := n.fixed
	if d == 0 {
		d = n.latency.Latency(ep.ID(), to, ep.lane.Rand())
	}
	// Deliveries are posted as handler events keyed by interned endpoint
	// indexes — two packed words plus the payload — so the steady-state
	// send path allocates nothing, and to the route table's by-value lane
	// reference, so it loads nothing of the peer's either.
	n.eng.PostEventTo(&ep.lane, n.lanes[dst], now.Add(d), n, sim.EventArg{
		A: uint64(size),
		B: uint64(ep.idx)<<32 | uint64(dst),
		P: msg,
	})
}

// Fire delivers one in-flight message (posted by Send) on the
// destination's lane: sim.Handler implementation.
func (n *Network) Fire(now time.Time, arg sim.EventArg) {
	from, to := uint32(arg.B>>32), uint32(arg.B)
	size := int(arg.A)
	if !n.up[to] {
		n.eps[from].chargeUseless(n.interner.ID(to), arg.P, size)
		return
	}
	dst := n.eps[to]
	dst.counters.MsgsIn++
	dst.counters.BytesIn += uint64(size)
	dst.recv.Deliver(n.interner.ID(from), arg.P, size, now)
}

// chargeUseless records an undeliverable message on the sender's
// counters. It may run on any destination lane, hence the atomics.
func (ep *Endpoint) chargeUseless(to ids.ID, msg any, size int) {
	atomic.AddUint64(&ep.counters.UselessMsgs, 1)
	atomic.AddUint64(&ep.counters.UselessBytes, uint64(size))
	if ep.net.undelivered != nil {
		ep.net.undelivered(ep, to, msg, size)
	}
}
