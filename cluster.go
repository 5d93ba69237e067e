package avmon

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync/atomic"
	"time"
	"unsafe"

	"avmon/internal/churn"
	"avmon/internal/core"
	"avmon/internal/hashing"
	"avmon/internal/ids"
	"avmon/internal/sim"
	"avmon/internal/simnet"
	"avmon/internal/trace"
)

// ChurnModel drives node lifecycle events for a simulated cluster
// (STAT, SYNTH, SYNTH-BD, or a trace replay).
type ChurnModel = churn.Model

// NewSTATModel returns the static model: n nodes, no churn.
func NewSTATModel(n int) ChurnModel { return churn.NewSTAT(n) }

// NewSYNTHModel returns the paper's SYNTH model: exponential
// join/leave churn at the given per-hour rate (paper: 0.2), no births
// or deaths.
func NewSYNTHModel(n int, churnPerHour float64) (ChurnModel, error) {
	return churn.NewSYNTH(churn.SynthConfig{N: n, ChurnPerHour: churnPerHour})
}

// NewSYNTHBDModel returns SYNTH plus births and deaths at the given
// per-day fraction of N (paper: 0.2 for SYNTH-BD, 0.4 for SYNTH-BD2).
func NewSYNTHBDModel(n int, churnPerHour, birthDeathPerDay float64) (ChurnModel, error) {
	return churn.NewSYNTHBD(churn.SynthConfig{
		N:                n,
		ChurnPerHour:     churnPerHour,
		BirthDeathPerDay: birthDeathPerDay,
	})
}

// NewMixedModel returns a heterogeneous population: nStable nodes
// that are almost always up plus nFlaky nodes that churn heavily
// (≈33% availability). Availability-aware node selection — the
// paper's motivating applications — pays off exactly in this regime.
func NewMixedModel(nStable, nFlaky int) (ChurnModel, error) {
	return churn.NewMixed(churn.MixedConfig{NStable: nStable, NFlaky: nFlaky})
}

// ZoneOutage is one scheduled correlated fault of the zone-outage
// chaos model: zone Zone is down (failed or partitioned away) from
// Start to End of virtual time. See NewZoneOutageModel and
// ParseOutageSchedule.
type ZoneOutage = churn.ZoneOutage

// ParseOutageSchedule parses the textual zone-outage schedule format
// (comma-separated `zone@start+duration` entries, Go duration syntax;
// e.g. "1@30m+10m,2@1h+5m") used by avmon-bench and the chaos
// experiment.
func ParseOutageSchedule(s string) ([]ZoneOutage, error) {
	return churn.ParseOutageSchedule(s)
}

// NewZoneOutageModel returns the correlated zone-outage chaos model: n
// static nodes spread across zones zones (node index mod zones —
// exactly NewZoneLatency's node → zone mapping, so an outage takes out
// one latency-matrix row's worth of nodes), with whole zones killed
// and restored on the given schedule. Outage and heal are the
// partition-and-heal fault of the chaos experiment's zone-outage
// scenario.
func NewZoneOutageModel(n, zones int, schedule []ZoneOutage) (ChurnModel, error) {
	return churn.NewZoneOutage(churn.ZoneOutageConfig{N: n, Zones: zones, Schedule: schedule})
}

// StormConfig parameterizes the flash-crowd / mass-leave storm chaos
// model: a static ordered base population plus deterministic join and
// leave waves. See the chaos experiment's flash-crowd and mass-leave
// scenarios.
type StormConfig = churn.StormConfig

// NewStormModel returns the flash-crowd / mass-leave storm model.
// With both shocks zeroed it degenerates to an ordered static
// population — the storm scenarios' attack-off control arm.
func NewStormModel(cfg StormConfig) (ChurnModel, error) {
	return churn.NewStorm(cfg)
}

// NewPlanetLabModel returns a trace-driven model over a synthetic
// PlanetLab-like availability trace (N hosts, 1-second granularity,
// ≈91% availability; see DESIGN.md for the substitution rationale).
func NewPlanetLabModel(n int, duration time.Duration, seed int64) (ChurnModel, error) {
	return trace.NewModel(trace.GeneratePlanetLab(n, duration, seed))
}

// NewOvernetModel returns a trace-driven model over a synthetic
// Overnet-like churn trace (stable size n, 20-minute granularity,
// ≈20%/hour churn with ongoing births and deaths).
func NewOvernetModel(n int, duration time.Duration, seed int64) (ChurnModel, error) {
	return trace.NewModel(trace.GenerateOvernet(n, duration, seed))
}

// SchedStats is a snapshot of a sharded cluster's scheduler counters:
// windows executed (Barriers always equals Windows) and per-shard
// lanes/steps/busy-time (see Cluster.SchedStats).
type SchedStats = sim.SchedStats

// ShardStats describes one shard's share of a sharded run (lanes
// owned, events executed, busy wall-clock time).
type ShardStats = sim.ShardStats

// ClusterConfig parameterizes a simulated AVMON deployment.
type ClusterConfig struct {
	// N is the protocol parameter N (expected stable system size).
	// Defaults to the churn model's StableN.
	N int
	// Seed makes the whole simulation deterministic.
	Seed int64
	// Shards is the number of engine shards for this one run. 0 means
	// 1, the serial case: everything runs on the calling goroutine.
	// Higher values partition nodes across that many shards advancing
	// in lockstep lookahead windows (conservative parallel
	// discrete-event simulation). For one seed, results are
	// byte-identical at any value — see DESIGN.md, "Parallel
	// simulation".
	Shards int
	// Options are the per-node protocol knobs.
	Options NodeOptions
	// Collusion names the colluding ring of the chaos experiment (the
	// adversary model of Section 4.3): the fraction of the stable
	// population N, in [0, 1], that belongs to it. The ring is the top
	// Collusion·N (rounded) indexes of the initial population; nodes
	// born later (churn births, control enrollees) are honest. A
	// colluder runs the protocol like any node; asked in a read-out
	// about a victim, anyone outside the ring, it answers 0
	// (Availability). So the ring never changes the run: at any
	// fraction it ends fingerprint-identical to the run at 0 (the chaos
	// experiment gates its attack arm as its control's twin).
	Collusion float64
	// LatencyModel is the one-way latency distribution: constant (see
	// NewConstantLatency; nil means a constant 50ms), lognormal, zone
	// matrix, … (see NewLognormalLatency and NewZoneLatency). Under
	// sharding the engine's lookahead window adapts to the model's
	// provable floor, MinLatency() — the adaptive-lookahead contract —
	// so the floor must be positive for Shards > 1. All draws come
	// from the sender's lane stream, so results stay byte-identical at
	// any shard count.
	LatencyModel LatencyModel
	// LossModel, when non-nil, drops messages for failure-injection
	// testing: independently (NewBernoulliLoss) or in bursts
	// (NewGilbertElliottLoss). nil is lossless. Per-sender channel state
	// is owned by the sender's lane, preserving determinism under
	// sharding.
	LossModel LossModel
}

// Traffic is a snapshot of one node's network counters.
type Traffic struct {
	MsgsOut      uint64
	MsgsIn       uint64
	BytesOut     uint64
	BytesIn      uint64
	UselessMsgs  uint64 // messages that found their destination dead
	UselessBytes uint64
}

// MemberStats is a snapshot of one simulated node's protocol state.
type MemberStats struct {
	Alive           bool
	Dead            bool // left for good
	EverBorn        bool
	PSSize          int
	TSSize          int
	CVSize          int
	MemoryEntries   int
	HashChecks      uint64
	DiscoveryTimes  []time.Duration // birth → i-th monitor discovered
	Traffic         Traffic
	MonPingsSent    uint64
	MonAcks         uint64
	PingsSaved      uint64
	UselessMonPings uint64        // monitoring pings that found the target dead
	BornAtOffset    time.Duration // birth time relative to the simulation epoch
	UpTime          time.Duration // cumulative time alive
	LifeTime        time.Duration // birth → now (zero if never born)
}

// TrueAvailability is the node's actual fraction of lifetime spent
// alive (the ground truth for Figures 17 and 20).
func (s MemberStats) TrueAvailability() float64 {
	if s.LifeTime <= 0 {
		return 0
	}
	return float64(s.UpTime) / float64(s.LifeTime)
}

// member is one simulated node's block: everything an event on its lane
// touches — the endpoint (its lane inside it), its worker's scratch, the
// protocol node (the coarse-view header inside it, the cvs entries in
// the cluster's CV slab), the node's own random stream and the harness
// state — built in place in one piece of slab memory, in the order a
// delivery reads it (DESIGN.md, "The block"), so a delivered message
// loads one object instead of chasing ten. *member is the endpoint's
// receiver, the node's transport, and the handler of its own protocol
// and monitoring ticks, at no closure or ticker per node. Blocks never
// move: the endpoint, the lane and the generator are pointed into.
//
// Field ownership follows the engine's lane discipline: lifecycle
// bookkeeping (born, dead, uptime accounting) belongs to the control
// lane, protocol state (ep's counters, node, rng, life) to the
// member's own lane, and uselessMonPings is updated atomically from
// arbitrary destination lanes. Stats reads everything while the engine
// is quiescent.
type member struct {
	ep   simnet.Endpoint
	ws   *workerScratch // the scratch of the worker executing the member's lane
	node core.Node
	rng  sim.CompactRNG // the node's private stream

	// Owned by the member's lane: the number of times the member has
	// left. A tick carries the life it was posted in (see Fire).
	life uint32

	// Owned by the control lane, in virtual time since the epoch. While
	// alive, up is the uptime accrued less the instant it came up. The
	// birth instant is the node's own (Node.Born): Birth posts its first
	// Join at that instant.
	everBorn bool
	dead     bool
	up       time.Duration

	// Updated atomically (see Cluster's undelivered callback):
	uselessMonPings uint64

	// Free: the block stays seven cache lines, and these bytes are
	// reserved for a node's last-resort contact (ROADMAP.md item 1(b)).
	_ [8]byte
}

// Deliver implements simnet.Receiver on the member's lane.
func (m *member) Deliver(from ids.ID, msg any, _ int, now time.Time) {
	cm, ok := msg.(*core.Message)
	if !ok {
		return
	}
	m.node.Handle(from, cm, now)
	// Receiver-side recycling: protocol envelopes are dead once
	// Handle returns (handlers copy whatever they keep). Query
	// messages are exempt — their askers may retain them — and are
	// left to the garbage collector.
	if cm.Type <= core.MsgPR2 {
		cm.Reset()
		m.ws.msgs = append(m.ws.msgs, cm)
	}
}

// monitorTick marks a monitoring tick in a tick event's EventArg.B, whose
// other bits are the tick's period.
const monitorTick = 1 << 63

// Fire implements sim.Handler on the member's lane: one protocol
// (Node.Tick) or monitoring (Node.MonitorTick) tick, which posts the
// next one a period later. A tick posted before the member last left
// belongs to a retired life and ends there, as a stopped sim.Ticker's
// firing does.
func (m *member) Fire(now time.Time, arg sim.EventArg) {
	if arg.A != uint64(m.life) {
		return
	}
	if arg.B&monitorTick != 0 {
		m.node.MonitorTick(now)
	} else {
		m.node.Tick(now)
	}
	lane := m.ep.Lane()
	m.ws.eng.PostEvent(lane, lane, now.Add(time.Duration(arg.B&^monitorTick)), m, arg)
}

// Send implements core.Transport. Monitoring pings that find their
// target dead (the "useless pings" of Figure 18) are counted by the
// cluster's undelivered callback at delivery time.
func (m *member) Send(to ids.ID, msg *core.Message) {
	m.ep.Send(to, msg, msg.WireSize())
}

// Cluster is a fully simulated AVMON deployment: a discrete-event
// engine, a simulated network, a churn model, and
// one protocol node per simulated host. It is the substrate for every
// experiment in EXPERIMENTS.md and is deterministic for a given seed
// at any shard count.
type Cluster struct {
	cfg     ClusterConfig
	eng     *sim.Engine
	net     *simnet.Network
	scheme  SelectionScheme
	model   ChurnModel
	members []*member
	// Slab memory members are built in (see member): the blocks and
	// coarse-view entries not yet handed out.
	blocks []member
	cvSlab []ids.ID
	k      int
	cvs    int
	// colludeFrom is the first colluding index: members with
	// idx ≥ colludeFrom (among the initial N) lie in the read-outs.
	// Equal to cfg.N when nobody colludes.
	colludeFrom int
}

var _ churn.Driver = (*Cluster)(nil)

// Validate reports whether NewCluster would accept the configuration,
// wrapping ErrInvalidConfig when not. Zero values keep meaning
// "default"; while N is 0 (taken from the churn model), K is not
// checked against it.
func (cfg ClusterConfig) Validate() error {
	switch {
	case cfg.N < 0:
		return badConfig("N %d is negative (0 = the churn model's stable size)", cfg.N)
	case cfg.Shards < 0:
		return badConfig("Shards %d is negative (0 = one shard)", cfg.Shards)
	}
	if !(cfg.Collusion >= 0 && cfg.Collusion <= 1) {
		return badConfig("Collusion %v outside [0, 1]", cfg.Collusion)
	}
	return cfg.Options.validate(cfg.N)
}

// NewCluster builds a cluster driven by the given churn model. The
// model must be freshly constructed (Install is called here). A
// configuration Validate rejects is refused before anything is built.
func NewCluster(cfg ClusterConfig, model ChurnModel) (*Cluster, error) {
	if model == nil {
		return nil, badConfig("nil churn model")
	}
	if cfg.N == 0 {
		cfg.N = model.StableN()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.N == 0 {
		return nil, badConfig("cannot determine system size N")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	k := cfg.Options.kFor(cfg.N)
	sel, err := hashing.NewSelector(cfg.Options.Hash.hasher(), k, cfg.N)
	if err != nil {
		return nil, err
	}
	// The pair-verdict memo of a cryptographic hash is single-threaded:
	// a sharded cluster's scheme is the bare, concurrency-safe selector.
	var scheme SelectionScheme = sel
	if cfg.Options.memoized() && cfg.Shards == 1 {
		scheme = hashing.Memoize(sel, 0)
	}
	latency := cfg.LatencyModel
	if latency == nil {
		latency, _ = simnet.NewConstantLatency(50 * time.Millisecond) // a valid constant
	}
	// Adaptive lookahead: the latency model's provable floor is the
	// minimum cross-node event distance, hence exactly the conservative
	// window width. Only one shard can run without a positive one.
	eng, err := sim.NewSharded(cfg.Seed, cfg.Shards, latency.MinLatency())
	if err != nil {
		return nil, fmt.Errorf("avmon: latency model %T: %w", latency, err)
	}
	c := &Cluster{
		cfg:         cfg,
		eng:         eng,
		scheme:      scheme,
		model:       model,
		k:           k,
		cvs:         cfg.Options.cvsFor(cfg.N),
		colludeFrom: cfg.N - int(cfg.Collusion*float64(cfg.N)+0.5),
	}
	c.net, err = simnet.New(eng,
		simnet.WithLatencyModel(latency),
		simnet.WithLossModel(cfg.LossModel),
		simnet.WithUndelivered(c.undelivered))
	if err != nil {
		return nil, fmt.Errorf("avmon: %w", err)
	}
	// One scratch instance per engine shard carries the sweep buffers,
	// the message freelist and the configuration, built once here, of
	// every node that shard executes — per shard, not per node, so a
	// million-node run pays for a handful.
	shared := cfg.Options.coreConfig(cfg.N)
	shared.Scheme = scheme
	eng.SetWorkerLocal(func() any {
		ws := &workerScratch{eng: eng, cfg: shared}
		ws.cfg.AcquireMessage, ws.cfg.Scratch = ws.acquireMessage, &ws.sweep
		return ws
	})
	model.Install(eng, c)
	return c, nil
}

// workerScratch is the per-worker state behind the cluster's
// allocation-free steady state: the protocol sweep buffers, a freelist
// of message envelopes, and the configuration of the nodes the worker
// executes, which draws its envelopes and sweep buffers from here. Messages
// migrate between workers with the traffic (acquired on the sender's
// worker, recycled on the receiver's), which stays balanced because
// steady-state traffic is dominated by request/response pairs.
type workerScratch struct {
	msgs  []*core.Message
	sweep core.SweepScratch
	eng   *sim.Engine
	cfg   core.Config
}

// acquireMessage is the worker's core.Config.AcquireMessage.
func (ws *workerScratch) acquireMessage() *core.Message {
	if k := len(ws.msgs); k > 0 {
		msg := ws.msgs[k-1]
		ws.msgs = ws.msgs[:k-1]
		return msg
	}
	return &core.Message{}
}

// undelivered runs on the destination's lane whenever a message finds
// its target dead; it attributes useless monitoring pings back to the
// sender (atomically — several destination shards may classify one
// sender's pings concurrently).
func (c *Cluster) undelivered(from *simnet.Endpoint, _ ids.ID, msg any, _ int) {
	cm, ok := msg.(*core.Message)
	if !ok || cm.Type != core.MsgMonPing {
		return
	}
	if m, ok := from.Receiver().(*member); ok {
		atomic.AddUint64(&m.uselessMonPings, 1)
	}
}

// slabBytes sizes the slabs members are carved from: large enough that
// the unused tail of a block slab (less than one block) is under 2 % of
// it, small enough that a 40-node test cluster does not notice.
const slabBytes = 64 << 10

// newBlock carves the next member out of the block slab.
func (c *Cluster) newBlock() *member {
	if len(c.blocks) == 0 {
		c.blocks = make([]member, slabBytes/unsafe.Sizeof(member{}))
	}
	m := &c.blocks[0]
	c.blocks = c.blocks[1:]
	return m
}

// newCV carves one coarse view's storage out of the CV slab: exactly
// cvs entries (core.Node.Init), which appends never outgrow into the
// next node's.
func (c *Cluster) newCV() []ids.ID {
	if len(c.cvSlab) < c.cvs {
		c.cvSlab = make([]ids.ID, max(c.cvs, slabBytes/8))
	}
	cv := c.cvSlab[:0:c.cvs]
	c.cvSlab = c.cvSlab[c.cvs:]
	return cv
}

// --- churn.Driver ----------------------------------------------------
//
// The driver methods run as control-lane events (or while the engine
// is quiescent). They mutate only control-owned state — the member
// table, the alive registry, uptime bookkeeping — and reach protocol
// state exclusively by posting events to the member's lane at the
// current virtual time. That split is what makes a sharded run
// byte-identical to a serial one: the bootstrap oracle and the churn
// randomness stay on one deterministic stream while node lanes
// progress in parallel.

// Birth implements churn.Driver.
func (c *Cluster) Birth(idx int) {
	for len(c.members) <= idx {
		c.members = append(c.members, nil)
	}
	if c.members[idx] != nil {
		return // model misuse; ignore
	}
	id := ids.Sim(idx)
	m := c.newBlock()
	if err := c.net.AttachAt(&m.ep, id, m); err != nil {
		return // duplicate identity; model misuse
	}
	m.ws = c.eng.WorkerLocal(m.ep.Lane()).(*workerScratch)
	// One private random source per node: the compact 32-byte source
	// keeps 10^5-node populations from burning ~5 KB of generator
	// state each (≈ 500 MB at N = 100,000 with rand.NewSource).
	m.rng.Seed(c.nodeSeed(idx))
	// Its first draw is its overreport ticket (overreports), drawn
	// here so that the protocol's draws follow it.
	m.rng.Float64()
	if err := m.node.Init(&m.ws.cfg, id, m, &m.rng, c.newCV()); err != nil {
		panic(err) // unreachable: NewCluster validated the configuration
	}
	c.members[idx] = m
	c.bringUp(m)
	m.everBorn = true
}

// nodeSeed seeds node idx's generator.
func (c *Cluster) nodeSeed(idx int) int64 {
	return c.cfg.Seed ^ (int64(idx)+1)*0x5851F42D4C957F2D
}

// overreports reports whether monitor idx lies in a read-out at
// overreport fraction f (Availability): its ticket, the first draw of
// its generator, is below f. The tickets of one run nest as f grows.
func (c *Cluster) overreports(idx int, f float64) bool {
	var ticket sim.CompactRNG
	ticket.Seed(c.nodeSeed(idx))
	return ticket.Float64() < f
}

// Rejoin implements churn.Driver.
func (c *Cluster) Rejoin(idx int) {
	m := c.memberAt(idx)
	if m == nil || m.dead || m.ep.Registered() {
		return
	}
	c.bringUp(m)
}

// Leave implements churn.Driver.
func (c *Cluster) Leave(idx int) {
	m := c.memberAt(idx)
	if m == nil || !m.ep.Registered() {
		return
	}
	c.takeDown(m)
}

// Death implements churn.Driver.
func (c *Cluster) Death(idx int) {
	m := c.memberAt(idx)
	if m == nil {
		return
	}
	if m.ep.Registered() {
		c.takeDown(m)
	}
	m.dead = true
}

// bringUp runs control-side: it registers the member alive, draws the
// bootstrap contact and tick phases from the control stream, and
// posts the protocol-side join to the member's lane at the current
// virtual time.
func (c *Cluster) bringUp(m *member) {
	now := c.eng.Now()
	m.ep.SetAliveRegistry(true)
	m.up -= c.eng.Elapsed()
	bootstrap := c.net.RandomAlive(m.node.ID())
	cfg := m.node.Config()
	period, monPeriod := cfg.Period, cfg.MonitorPeriod
	offTick := time.Duration(c.eng.Rand().Int63n(int64(period)))
	offMon := time.Duration(c.eng.Rand().Int63n(int64(monPeriod)))
	c.eng.Post(nil, m.ep.Lane(), now, func(now time.Time) {
		m.ep.SetAliveFlag(true)
		m.node.Join(now, bootstrap)
		lane := m.ep.Lane()
		c.eng.PostEvent(lane, lane, now.Add(offTick), m, sim.EventArg{A: uint64(m.life), B: uint64(period)})
		c.eng.PostEvent(lane, lane, now.Add(offMon), m, sim.EventArg{A: uint64(m.life), B: uint64(monPeriod) | monitorTick})
	})
}

// takeDown is bringUp's inverse: deregister and account uptime
// control-side, stop the protocol on the member's lane, where retiring
// the member's life ends its ticks.
func (c *Cluster) takeDown(m *member) {
	now := c.eng.Now()
	m.ep.SetAliveRegistry(false)
	m.up += c.eng.Elapsed()
	c.eng.Post(nil, m.ep.Lane(), now, func(now time.Time) {
		m.node.Leave(now)
		m.ep.SetAliveFlag(false)
		m.life++
	})
}

func (c *Cluster) memberAt(idx int) *member {
	if idx < 0 || idx >= len(c.members) {
		return nil
	}
	return c.members[idx]
}

// --- Public surface ---------------------------------------------------

// Run advances the simulation by d of virtual time.
func (c *Cluster) Run(d time.Duration) { c.eng.RunFor(d) }

// Elapsed returns the virtual time since the simulation epoch.
func (c *Cluster) Elapsed() time.Duration { return c.eng.Elapsed() }

// Steps returns the number of simulation events executed so far (a
// deterministic measure of how much work the run performed — under
// sharding, the per-shard counters reduced at the last barrier).
func (c *Cluster) Steps() uint64 { return c.eng.Steps() }

// Shards returns the engine's shard count (1 = everything on the
// calling goroutine).
func (c *Cluster) Shards() int { return c.cfg.Shards }

// SchedStats returns the engine's scheduler counters (windows,
// barriers, per-shard lanes, steps and busy time); ok is false, and the
// counters zero, for a one-shard cluster, which has no barrier to count.
// Valid while the engine is quiescent. Windows and barriers are equal,
// and deterministic for a fixed (Seed, Shards); per-shard busy times
// are host measurements.
func (c *Cluster) SchedStats() (SchedStats, bool) {
	if c.cfg.Shards == 1 {
		return SchedStats{}, false
	}
	return c.eng.SchedStats(), true
}

// Scheme returns the cluster's selection scheme.
func (c *Cluster) Scheme() SelectionScheme { return c.scheme }

// K returns the effective pinging-set parameter.
func (c *Cluster) K() int { return c.k }

// CVS returns the effective coarse-view size.
func (c *Cluster) CVS() int { return c.cvs }

// Size returns the number of nodes ever created.
func (c *Cluster) Size() int { return len(c.members) }

// AliveCount returns the number of currently alive nodes.
func (c *Cluster) AliveCount() int {
	return c.net.AliveCount()
}

// EnrollControl births count extra control-group nodes now, subject to
// the model's ongoing churn, and returns their indexes (the Figure 3
// methodology). Their protocol nodes join at the current virtual time
// when the simulation next runs.
func (c *Cluster) EnrollControl(count int) []int {
	out := make([]int, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, c.model.Enroll())
	}
	return out
}

// IsColluder reports whether node idx belongs to the colluding ring
// named by ClusterConfig.Collusion: the top Collusion·N (rounded)
// indexes of the initial population, whose answers about victims the
// read-outs (Availability) forge. Always false at Collusion 0.
func (c *Cluster) IsColluder(idx int) bool {
	return idx >= c.colludeFrom && idx < c.cfg.N
}

// IDOf returns the identity of node idx.
func (c *Cluster) IDOf(idx int) ID { return ids.Sim(idx) }

// IndexOf recovers a node's index from its identity; ok is false for
// identities that are not cluster members.
func (c *Cluster) IndexOf(id ID) (int, bool) {
	idx, ok := ids.SimIndex(id)
	if !ok || c.memberAt(idx) == nil {
		return 0, false
	}
	return idx, true
}

// MonitorsOf returns PS(idx) as currently discovered by node idx.
func (c *Cluster) MonitorsOf(idx int) []ID {
	m := c.memberAt(idx)
	if m == nil {
		return nil
	}
	return m.node.PS()
}

// CoarseViewOf returns node idx's current coarse view CV(idx).
func (c *Cluster) CoarseViewOf(idx int) []ID {
	m := c.memberAt(idx)
	if m == nil {
		return nil
	}
	return m.node.CV()
}

// TargetsOf returns TS(idx) as currently discovered by node idx.
func (c *Cluster) TargetsOf(idx int) []ID {
	m := c.memberAt(idx)
	if m == nil {
		return nil
	}
	return m.node.TS()
}

// ReportMonitors invokes the l-out-of-K reporting policy on node idx.
func (c *Cluster) ReportMonitors(idx, count int) []ID {
	m := c.memberAt(idx)
	if m == nil {
		return nil
	}
	return m.node.ReportMonitors(count)
}

// EstimateBy returns monitor idx's availability estimate of target.
func (c *Cluster) EstimateBy(idx int, target ID) (float64, bool) {
	m := c.memberAt(idx)
	if m == nil {
		return 0, false
	}
	return m.node.EstimateOf(target)
}

// Availability is node idx's availability as the system reports it
// (Section 3.3): the monitors idx reports, verified against the scheme,
// each asked for its estimate of idx; the answer is their mean. ok is
// false when no verified monitor has an estimate.
//
// A monitor lies only when asked, so its lies are the read-out's, not
// the run's: a colluder asked about a victim (ClusterConfig.Collusion)
// answers 0, and overreport mounts Figure 20's attack — any other
// monitor whose ticket (overreports) is below it answers 1. 0 is the
// honest read-out. The run itself is the same at every fraction, so
// one finished cluster serves them all.
func (c *Cluster) Availability(idx int, overreport float64) (float64, bool) {
	subject := c.IDOf(idx)
	reported := c.ReportMonitors(idx, 0)
	verified, err := VerifyReport(c.scheme, subject, reported, len(reported))
	if err != nil {
		return 0, false
	}
	sum, n := 0.0, 0
	for _, mon := range verified {
		mi, ok := c.IndexOf(mon)
		if !ok {
			continue
		}
		est, known := c.EstimateBy(mi, subject)
		switch {
		case c.IsColluder(mi) && !c.IsColluder(idx):
			est, known = 0, true
		case c.overreports(mi, overreport):
			est, known = 1, true
		}
		if known {
			sum += est
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Stats snapshots node idx's protocol and traffic state. Valid while
// the engine is quiescent (between Run calls).
func (c *Cluster) Stats(idx int) MemberStats {
	m := c.memberAt(idx)
	if m == nil {
		return MemberStats{}
	}
	counters := m.ep.Counters()
	mon := m.node.MonitoringStats()
	up := m.up
	if m.ep.Registered() {
		up += c.eng.Elapsed()
	}
	var bornAt, life time.Duration
	if m.everBorn {
		// A first Join still queued runs at this very instant.
		bornAt = c.eng.Elapsed()
		if at, ok := m.node.Born(); ok {
			bornAt = at.Sub(sim.Epoch)
		}
		life = c.eng.Elapsed() - bornAt
	}
	return MemberStats{
		Alive:          m.ep.Registered(),
		Dead:           m.dead,
		EverBorn:       m.everBorn,
		PSSize:         m.node.PSLen(),
		TSSize:         m.node.TSLen(),
		CVSize:         m.node.CVLen(),
		MemoryEntries:  m.node.MemoryEntries(),
		HashChecks:     m.node.HashChecks(),
		DiscoveryTimes: m.node.DiscoveryTimes(),
		Traffic: Traffic{
			MsgsOut:      counters.MsgsOut,
			MsgsIn:       counters.MsgsIn,
			BytesOut:     counters.BytesOut,
			BytesIn:      counters.BytesIn,
			UselessMsgs:  counters.UselessMsgs,
			UselessBytes: counters.UselessBytes,
		},
		MonPingsSent:    mon.PingsSent,
		MonAcks:         mon.Acks,
		PingsSaved:      mon.PingsSaved,
		UselessMonPings: atomic.LoadUint64(&m.uselessMonPings),
		BornAtOffset:    bornAt,
		UpTime:          up,
		LifeTime:        life,
	}
}

// WriteState writes the canonical text of everything an experiment can
// observe of the run so far: the engine's step count, the population,
// and per member its lifecycle flags, PS, TS and CV, hash checks,
// discovery times, traffic and monitoring counters, useless pings,
// uptime and lifetime. Two clusters that write equal text render
// byte-identical experiment output; the text itself is for locating a
// divergence, Fingerprint for comparing. Valid while the engine is
// quiescent.
func (c *Cluster) WriteState(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "steps=%d alive=%d size=%d\n", c.Steps(), c.AliveCount(), c.Size())
	for i := range c.members {
		s := c.Stats(i)
		fmt.Fprintf(bw, "%d: alive=%t dead=%t born=%t ps=%v ts=%v cv=%v checks=%d disc=%v\n",
			i, s.Alive, s.Dead, s.EverBorn,
			c.MonitorsOf(i), c.TargetsOf(i), c.CoarseViewOf(i),
			s.HashChecks, s.DiscoveryTimes)
		fmt.Fprintf(bw, "   traffic=%+v monpings=%d acks=%d saved=%d useless=%d up=%v life=%v\n",
			s.Traffic, s.MonPingsSent, s.MonAcks, s.PingsSaved,
			s.UselessMonPings, s.UpTime, s.LifeTime)
	}
	return bw.Flush()
}

// Fingerprint is the cluster's canonical protocol digest: the hex
// SHA-256 of WriteState. The serial-vs-sharded, zero-magnitude-control
// and parent-vs-change gates all compare it.
func (c *Cluster) Fingerprint() string {
	h := sha256.New()
	_ = c.WriteState(h) // a hash.Hash's Write never fails
	return hex.EncodeToString(h.Sum(nil))
}

// ResetTraffic zeroes every node's traffic counters (call at the end
// of an experiment's warm-up phase).
func (c *Cluster) ResetTraffic() {
	for _, m := range c.members {
		if m != nil {
			m.ep.ResetCounters()
		}
	}
}
