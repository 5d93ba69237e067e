package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Engine is the scheduler: node lanes are partitioned round-robin
// across P ≥ 1 shards, each owning an event queue, and all shards
// advance in lockstep windows. With several shards a window is at most
// one lookahead wide (the lookahead is the minimum cross-lane message
// latency): an event executing at time t can only affect another shard
// at ≥ t plus the lookahead, so every cross-shard post lands at or
// after the window's end and is merged at the barrier before the
// destination could need it. No rollback is ever required. With one
// shard there is no cross-shard post to wait for: a window ends only at
// the next control event or the deadline, the calling goroutine runs
// it, and events execute in exactly the canonical total order.
//
// The window grid is static on purpose — one coordinator barrier per
// window, lanes never migrate. DESIGN.md, "Why the window grid is
// static", has the measurements that retired the adaptive alternatives.
//
// Control-lane events run single-threaded at coordinator barriers,
// before the node-lane events of the windows that follow (with several
// shards, up to one lookahead early). Because control events touch only
// control-owned state (churn models, the alive registry, endpoint
// registration) and communicate with node lanes exclusively through
// posted events, this reordering is unobservable — see the package
// comment for the full contract.
//
// An Engine is not safe for concurrent use; all node logic runs inside
// event callbacks. For one seed, every lane's run is byte-identical at
// any shard count.
type Engine struct {
	now       int64 // control clock: the executing control event's time, the resting clock while quiescent
	last      int64 // inside a window: the last instant it covers, the same for every shard
	lookahead int64
	seed      int64

	control  *Lane
	controlQ eventQueue
	lanes    int32  // node lanes created so far
	steps    uint64 // control steps; Steps() adds shard steps
	windows  uint64 // executed windows = coordinator barriers

	shards  []*shard
	inPhase bool
	done    chan struct{} // one send per worker per window
	localFn func() any
}

type shard struct {
	queue    eventQueue
	nowNanos int64 // timestamp of the executing event
	steps    uint64
	busyNS   int64     // wall-clock ns spent executing events
	outbox   [][]event // per destination shard, drained at barriers
	start    chan struct{}
	panicked any // a worker's recovered panic value, re-raised by the coordinator
	local    any // worker-local scratch (see Engine.WorkerLocal)
}

// New returns a one-shard engine whose clock starts at Epoch, with a
// deterministic control random source derived from seed.
func New(seed int64) *Engine {
	e, _ := NewSharded(seed, 1, 0)
	return e
}

// NewSharded returns an engine with the given shard count and
// lookahead. With several shards the lookahead must be a positive lower
// bound on every cross-lane post distance — for a simulated network,
// the latency model's provable floor (simnet.LatencyModel.MinLatency;
// the cluster passes exactly that, which is what makes heterogeneous
// WAN latency models shardable). The engine panics deterministically
// when an event violates the bound, and simnet.New rejects a latency
// model whose floor is below the engine's Lookahead before a run can
// start. One shard schedules nothing by its lookahead. The control
// random source and per-lane sources derive from seed alone, never from
// the shard count.
func NewSharded(seed int64, shards int, lookahead time.Duration) (*Engine, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sim: shard count must be ≥ 1, got %d", shards)
	}
	if lookahead < 0 || lookahead == 0 && shards > 1 {
		return nil, fmt.Errorf("sim: %d shards need a positive lookahead, got %v", shards, lookahead)
	}
	e := &Engine{
		lookahead: int64(lookahead),
		seed:      seed,
		control:   newControlLane(seed),
	}
	for i := 0; i < shards; i++ {
		e.shards = append(e.shards, &shard{outbox: make([][]event, shards)})
	}
	return e, nil
}

// Lookahead returns the engine's conservative cross-lane floor: the
// guaranteed minimum cross-lane post distance this engine was built
// with (0 from New). Layers that generate cross-lane traffic (e.g. a
// simulated network's latency model) must prove a floor of at least
// this value — simnet.New rejects a latency model whose MinLatency is
// smaller.
func (e *Engine) Lookahead() time.Duration { return time.Duration(e.lookahead) }

// Now returns the current virtual time: the executing control event's
// timestamp during a barrier, the resting clock while quiescent. It
// panics inside a window — node-lane events must use the time passed to
// their callback.
func (e *Engine) Now() time.Time {
	if e.inPhase {
		panic("sim: Now() called inside a window; use the event callback's now")
	}
	return Epoch.Add(time.Duration(e.now))
}

// Elapsed returns Now() - Epoch. Valid wherever Now is.
func (e *Engine) Elapsed() time.Duration { return time.Duration(e.now) }

// Rand returns the control-lane random source (valid from control
// events and while quiescent).
func (e *Engine) Rand() *rand.Rand { return e.control.Rand() }

// Steps returns the number of events executed across all shards and
// the control lane. Valid while quiescent.
func (e *Engine) Steps() uint64 {
	total := e.steps
	for _, s := range e.shards {
		total += s.steps
	}
	return total
}

// Pending returns the number of queued events. Valid while quiescent.
func (e *Engine) Pending() int {
	n := e.controlQ.len()
	for _, s := range e.shards {
		n += s.queue.len()
	}
	return n
}

// ShardStats describes one shard's share of a run.
type ShardStats struct {
	// Lanes is the number of node lanes assigned to the shard.
	Lanes int
	// Steps is the number of events the shard has executed.
	Steps uint64
	// BusyNS is the wall-clock nanoseconds the shard spent executing
	// events (excluding barrier waits). It is a host measurement:
	// deterministic runs report nondeterministic BusyNS.
	BusyNS int64
}

// SchedStats is a snapshot of the engine's scheduler counters, valid
// while the engine is quiescent. Windows and Barriers are deterministic
// for a fixed (seed, shard count); PerShard busy times are host
// measurements.
type SchedStats struct {
	// Shards is the configured shard count.
	Shards int
	// Lookahead is the engine's conservative cross-lane floor.
	Lookahead time.Duration
	// Windows counts executed windows across the run.
	Windows uint64
	// Barriers counts coordinator barriers. Every window ends in
	// exactly one, so Barriers == Windows always; the field remains
	// because the repo benchmark reads both.
	Barriers uint64
	// PerShard holds one entry per shard.
	PerShard []ShardStats
}

// SchedStats returns the engine's scheduler counters. Valid while
// quiescent.
func (e *Engine) SchedStats() SchedStats {
	st := SchedStats{
		Shards:    len(e.shards),
		Lookahead: time.Duration(e.lookahead),
		Windows:   e.windows,
		Barriers:  e.windows,
		PerShard:  make([]ShardStats, len(e.shards)),
	}
	// Round-robin: the first lanes%shards shards hold one lane more.
	each, extra := int(e.lanes)/len(e.shards), int(e.lanes)%len(e.shards)
	for i, s := range e.shards {
		st.PerShard[i] = ShardStats{Lanes: each, Steps: s.steps, BusyNS: s.busyNS}
		if i < extra {
			st.PerShard[i].Lanes++
		}
	}
	return st
}

// AddLane registers a new node lane, assigned round-robin to a shard
// for life. Call from control events or while quiescent only.
func (e *Engine) AddLane() *Lane {
	l := new(Lane)
	e.InitLane(l)
	return l
}

// InitLane is AddLane in place: l is memory the caller owns (a
// simulated node's block) and must not move or copy afterwards.
func (e *Engine) InitLane(l *Lane) {
	e.lanes++
	*l = Lane{LaneRef: LaneRef{id: e.lanes, shard: (e.lanes - 1) % int32(len(e.shards))}, seed: laneSeed(e.seed, e.lanes)}
}

// LaneNow returns the lane's current virtual time: the executing
// event's timestamp when called from the lane's own events inside a
// window, and the control clock (the executing control event's time, or
// the resting clock) otherwise.
func (e *Engine) LaneNow(l *Lane) time.Time {
	if !e.inPhase {
		return Epoch.Add(time.Duration(e.now))
	}
	return Epoch.Add(time.Duration(e.shards[l.shard].nowNanos))
}

// Post schedules fn on lane dst at time at, attributed to lane src (nil
// means the control lane, for either). Times before the source lane's
// current time are clamped to it; fn receives its own timestamp. Posts
// attributed to the control lane go straight into the destination's
// queue — they happen at barriers or while quiescent, when every shard
// is parked. Posts from a node lane stay in the owning shard's queue
// when the destination shares the shard, and are routed through an
// outbox — after a deterministic check against the window's end, which
// the destination may have executed through — otherwise.
func (e *Engine) Post(src, dst *Lane, at time.Time, fn func(now time.Time)) {
	e.PostEvent(src, dst, at, funcHandler{}, EventArg{P: fn})
}

// PostEvent is the allocation-free form of Post: instead of a closure
// it schedules a long-lived Handler with a by-value EventArg, both
// stored directly in the queue entry. Ordering, clamping and routing
// are Post's.
func (e *Engine) PostEvent(src, dst *Lane, at time.Time, h Handler, arg EventArg) {
	if src == nil {
		src = e.control
	}
	if dst == nil {
		dst = e.control
	}
	e.PostEventTo(src, dst.LaneRef, at, h, arg)
}

// PostEventTo is PostEvent with the destination named by value; src
// must not be nil.
func (e *Engine) PostEventTo(src *Lane, dst LaneRef, at time.Time, h Handler, arg EventArg) {
	nanos := int64(at.Sub(Epoch))
	if src.id == 0 {
		if e.inPhase {
			panic("sim: control-lane post inside a window")
		}
		if nanos < e.now {
			nanos = e.now
		}
		src.seq++
		ev := event{at: nanos, lane: dst.id, src: 0, seq: src.seq, h: h, arg: arg}
		if dst.id == 0 {
			e.controlQ.push(ev, e.now)
		} else {
			e.shards[dst.shard].queue.push(ev, e.now)
		}
		return
	}
	if dst.id == 0 {
		panic("sim: node-lane post to the control lane")
	}
	s := e.shards[src.shard]
	floor := s.nowNanos
	if !e.inPhase && e.now > floor {
		// Quiescent post: the shard's last event may be far behind the
		// resting clock, which is the floor then.
		floor = e.now
	}
	if nanos < floor {
		nanos = floor
	}
	src.seq++
	ev := event{at: nanos, lane: dst.id, src: src.id, seq: src.seq, h: h, arg: arg}
	if dst.shard == src.shard || !e.inPhase {
		// Same shard, or a quiescent post (e.g. a test sending between
		// Run calls): the destination queue is safe to touch directly.
		e.shards[dst.shard].queue.push(ev, floor)
		return
	}
	if nanos <= e.last {
		panic(fmt.Sprintf(
			"sim: cross-shard post at t=%v violates the %v lookahead (the window runs through %v)",
			time.Duration(nanos), time.Duration(e.lookahead), time.Duration(e.last)))
	}
	s.outbox[dst.shard] = append(s.outbox[dst.shard], ev)
}

// SetWorkerLocal registers a factory for per-worker scratch state: one
// instance per shard, created on first use. Worker-local state must
// never carry information between events — it exists so per-event
// scratch buffers need not be owned (and paid for) by every lane.
func (e *Engine) SetWorkerLocal(factory func() any) { e.localFn = factory }

// WorkerLocal returns the scratch instance of the shard executing lane
// l, or nil when no factory is registered. Call only from l's own
// events (or while quiescent): the instance is created on the shard's
// own first access, so no cross-shard synchronization is needed.
func (e *Engine) WorkerLocal(l *Lane) any {
	s := e.shards[l.shard]
	if s.local == nil && e.localFn != nil {
		s.local = e.localFn()
	}
	return s.local
}

// At schedules fn on the control lane at virtual time t. Times in the
// past are clamped to "now".
func (e *Engine) At(t time.Time, fn func()) {
	e.Post(e.control, e.control, t, func(time.Time) { fn() })
}

// After schedules fn on the control lane d from now (the executing
// control event's time, or the resting clock while quiescent). Negative
// d is clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) {
	e.At(Epoch.Add(time.Duration(e.now)+max(d, 0)), fn)
}

// minPending returns the earliest queued timestamp, or false when every
// queue is empty. Outboxes are empty whenever this runs (they are
// drained at each barrier).
func (e *Engine) minPending() (int64, bool) {
	first, ok := e.controlQ.minAt()
	for _, s := range e.shards {
		if at, some := s.queue.minAt(); some && (!ok || at < first) {
			first, ok = at, true
		}
	}
	return first, ok
}

// windowLast returns the last instant of the next window — with several
// shards one lookahead from the earliest pending node-lane event; capped
// at the run deadline and before the next undrained control event — and
// whether any shard owns an event in it. Outboxes are empty whenever
// this runs, so the queue heads are a complete account of pending
// events.
func (e *Engine) windowLast(limit int64) (int64, bool) {
	first := int64(math.MaxInt64)
	for _, s := range e.shards {
		if at, ok := s.queue.minAt(); ok && at < first {
			first = at
		}
	}
	if first == math.MaxInt64 {
		return 0, false
	}
	last := limit
	if len(e.shards) > 1 {
		last = min(limit, first+e.lookahead-1)
	}
	if at, ok := e.controlQ.minAt(); ok && at <= last {
		last = at - 1
	}
	return last, first <= last
}

// RunUntil executes events in canonical order until none is queued or
// the next is after deadline; the clock is left at deadline if that is
// later.
func (e *Engine) RunUntil(deadline time.Time) {
	limit := int64(deadline.Sub(Epoch))
	e.run(limit)
	if limit > e.now {
		e.now = limit
	}
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(Epoch.Add(time.Duration(e.now) + d)) }

// Run executes events until none is queued, leaving the clock at the
// last one executed.
func (e *Engine) Run() {
	e.run(math.MaxInt64)
	for _, s := range e.shards {
		e.now = max(e.now, s.nowNanos)
	}
}

// run executes events with timestamps ≤ limit. Each pass of the loop is
// one window: the coordinator runs the control events due by the
// window's reach, sets the window end every shard shares (see
// windowLast), runs shard 0's window itself while the workers run
// theirs, and merges the cross-shard posts. One shard allocates
// nothing here.
func (e *Engine) run(limit int64) {
	if len(e.shards) > 1 {
		defer e.startWorkers()()
	}
	for {
		next, ok := e.minPending()
		if !ok || next > limit {
			return
		}
		// Barrier, part 1: the control events due, single-threaded: one
		// shard runs them at their own timestamps, several run those
		// within one lookahead of the frontier. They may post into
		// shard queues (every shard is parked).
		due := next
		if len(e.shards) > 1 {
			due = min(limit, next+e.lookahead-1)
		}
		for ev, ok := e.controlQ.popDue(due); ok; ev, ok = e.controlQ.popDue(due) {
			e.now = ev.at
			e.steps++
			ev.fire(Epoch.Add(time.Duration(ev.at)))
		}
		if e.last, ok = e.windowLast(limit); !ok {
			if e.controlQ.len() == 0 {
				return // nothing can run before the deadline
			}
			continue // only control events are due; drain more next pass
		}
		e.windows++
		e.inPhase = true
		for _, s := range e.shards[1:] {
			s.start <- struct{}{}
		}
		e.shards[0].runWindow(e.last)
		for range e.shards[1:] {
			<-e.done
		}
		e.inPhase = false
		for _, s := range e.shards[1:] {
			if s.panicked != nil {
				// Re-raise a worker panic on the calling goroutine so
				// callers (and tests) can observe it normally; the
				// deferred stop tears the workers down.
				panic(s.panicked)
			}
		}
		// Barrier, part 2: merge cross-shard posts into their residual heaps.
		for _, s := range e.shards {
			for d, out := range s.outbox {
				for _, ev := range out {
					e.shards[d].queue.heap.push(ev)
				}
				s.outbox[d] = out[:0]
			}
		}
	}
}

// startWorkers parks one goroutine per shard after the first and
// returns the function that stops them and waits for them to exit. That
// function also runs when an event panics on the calling goroutine —
// then possibly mid-window, which the buffered done channel lets the
// workers finish — so workers never leak parked on their start
// channels.
func (e *Engine) startWorkers() (stop func()) {
	var wg sync.WaitGroup
	e.done = make(chan struct{}, len(e.shards)-1)
	for _, s := range e.shards[1:] {
		s := s
		s.start = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.work(s)
		}()
	}
	return func() {
		for _, s := range e.shards[1:] {
			close(s.start)
		}
		wg.Wait()
	}
}

// work is one worker shard's window loop. A panic inside an event is
// captured and re-raised by the coordinator on the calling goroutine.
func (e *Engine) work(s *shard) {
	for range s.start {
		func() {
			defer func() {
				if r := recover(); r != nil {
					s.panicked = r
				}
			}()
			s.runWindow(e.last)
		}()
		e.done <- struct{}{}
	}
}

// runWindow executes the shard's events of its window in canonical
// order, accounting steps and busy wall-clock time.
func (s *shard) runWindow(last int64) {
	if at, ok := s.queue.minAt(); !ok || at > last {
		return
	}
	t0 := time.Now()
	for ev, ok := s.queue.popDue(last); ok; ev, ok = s.queue.popDue(last) {
		s.nowNanos = ev.at
		s.steps++
		ev.fire(Epoch.Add(time.Duration(ev.at)))
	}
	s.busyNS += int64(time.Since(t0))
}
