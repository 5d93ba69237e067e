package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// ShardedEngine is the conservative parallel scheduler: node lanes are
// partitioned round-robin across P worker shards, each owning an
// event queue, and all shards advance in lockstep windows at most one
// lookahead wide (the lookahead is the minimum cross-lane message
// latency): an event executing at time t can only affect another shard
// at ≥ t plus the lookahead, so every cross-shard post lands at or
// after the window's end and is merged at the barrier before the
// destination could need it. No rollback is ever required.
//
// The window grid is static on purpose — one coordinator barrier per
// window, lanes never migrate. DESIGN.md, "Why the window grid is
// static", has the measurements that retired the adaptive alternatives.
//
// Control-lane events run single-threaded at coordinator barriers,
// before the node-lane events of the windows that follow. Because
// control events touch only control-owned state (churn models, the
// alive registry, endpoint registration) and communicate with node
// lanes exclusively through posted events, this reordering is
// unobservable — see the package comment for the full contract.
//
// For one seed, a ShardedEngine run is byte-identical to a serial
// Engine run at any shard count.
type ShardedEngine struct {
	now       time.Time
	nowNanos  int64
	lookahead int64
	seed      int64

	control    *Lane
	controlQ   eventQueue
	controlNow int64
	lanes      int32  // node lanes created so far
	steps      uint64 // control steps; Steps() adds shard steps
	windows    uint64 // executed windows = coordinator barriers

	shards  []*shard
	inPhase bool
	done    chan struct{}
	localFn func() any
}

type shard struct {
	queue    eventQueue
	nowNanos int64 // timestamp of the executing event
	limit    int64 // current window end (exclusive)
	frontier int64 // max window end ever handed out; posts below it are violations
	steps    uint64
	busyNS   int64     // wall-clock ns spent executing events
	outbox   [][]event // per destination shard, drained at barriers
	start    chan struct{}
	panicked any // recovered panic value, re-raised by the coordinator
	local    any // worker-local scratch (see Sched.WorkerLocal)
}

var _ Sched = (*ShardedEngine)(nil)

// NewSharded returns a parallel engine with the given shard count and
// lookahead. The lookahead must be a positive lower bound on every
// cross-lane post distance — for a simulated network, the latency
// model's provable floor (simnet.LatencyModel.MinLatency; the cluster
// passes exactly that, which is what makes heterogeneous WAN latency
// models shardable). The engine panics deterministically when an
// event violates the bound, and simnet.New rejects a latency model
// whose floor is below the engine's Lookahead before a run can start.
// Seed semantics match New: the control random source and per-lane
// sources are derived exactly as the serial engine derives them, which
// is what makes the two engines interchangeable.
func NewSharded(seed int64, shards int, lookahead time.Duration) (*ShardedEngine, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sim: shard count must be ≥ 1, got %d", shards)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: lookahead must be positive, got %v", lookahead)
	}
	e := &ShardedEngine{
		now:       Epoch,
		lookahead: int64(lookahead),
		seed:      seed,
		control:   newControlLane(seed),
		done:      make(chan struct{}),
	}
	for i := 0; i < shards; i++ {
		e.shards = append(e.shards, &shard{
			outbox: make([][]event, shards),
			start:  make(chan struct{}),
		})
	}
	return e, nil
}

// Shards returns the shard count.
func (e *ShardedEngine) Shards() int { return len(e.shards) }

// Lookahead returns the engine's conservative cross-lane floor: the
// guaranteed minimum cross-lane post distance this engine was built
// with. Layers that generate cross-lane traffic (e.g. a simulated
// network's latency model) must prove a floor of at least this value —
// simnet.New rejects a latency model whose MinLatency is smaller.
func (e *ShardedEngine) Lookahead() time.Duration { return time.Duration(e.lookahead) }

// Now returns the current virtual time: the executing control event's
// timestamp during a barrier, the resting clock while quiescent. It
// panics during the parallel phase — node-lane events must use the
// time passed to their callback.
func (e *ShardedEngine) Now() time.Time {
	if e.inPhase {
		panic("sim: Now() called during the parallel phase; use the event callback's now")
	}
	return Epoch.Add(time.Duration(e.controlNow))
}

// Elapsed returns the virtual time elapsed since Epoch: Now() - Epoch,
// tracking the executing control event during a barrier and the
// resting clock while quiescent (matching the serial engine).
func (e *ShardedEngine) Elapsed() time.Duration { return time.Duration(e.controlNow) }

// Rand returns the control-lane random source.
func (e *ShardedEngine) Rand() *rand.Rand { return e.control.Rand() }

// Steps returns the number of events executed across all shards and
// the control lane. Valid while quiescent.
func (e *ShardedEngine) Steps() uint64 {
	total := e.steps
	for _, s := range e.shards {
		total += s.steps
	}
	return total
}

// Pending returns the number of queued events. Valid while quiescent.
func (e *ShardedEngine) Pending() int {
	n := e.controlQ.len()
	for _, s := range e.shards {
		n += s.queue.len()
	}
	return n
}

// ShardStats describes one shard's share of a sharded run.
type ShardStats struct {
	// Lanes is the number of node lanes assigned to the shard.
	Lanes int
	// Steps is the number of events the shard has executed.
	Steps uint64
	// BusyNS is the wall-clock nanoseconds the shard's worker spent
	// executing events (excluding barrier waits). It is a host
	// measurement: deterministic runs report nondeterministic BusyNS.
	BusyNS int64
}

// SchedStats is a snapshot of the sharded engine's scheduler counters,
// valid while the engine is quiescent. Windows and Barriers are
// deterministic for a fixed (seed, shard count); PerShard busy times
// are host measurements.
type SchedStats struct {
	// Shards is the configured shard count.
	Shards int
	// Lookahead is the engine's conservative cross-lane floor.
	Lookahead time.Duration
	// Windows counts executed lookahead windows across the run.
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
func (e *ShardedEngine) SchedStats() SchedStats {
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

// Control returns the control lane.
func (e *ShardedEngine) Control() *Lane { return e.control }

// AddLane registers a new node lane, assigned round-robin to a shard
// for life. Call from control events or while quiescent only.
func (e *ShardedEngine) AddLane() *Lane {
	l := new(Lane)
	e.InitLane(l)
	return l
}

// InitLane implements Sched.
func (e *ShardedEngine) InitLane(l *Lane) {
	e.lanes++
	*l = Lane{LaneRef: LaneRef{id: e.lanes, shard: (e.lanes - 1) % int32(len(e.shards))}}
	l.rng.Seed(laneSeed(e.seed, e.lanes))
}

// LaneNow returns the lane's current virtual time: the executing
// event's timestamp when called from the lane's own events during the
// parallel phase, and the control clock (the executing control event's
// time, or the resting clock) otherwise.
func (e *ShardedEngine) LaneNow(l *Lane) time.Time {
	if !e.inPhase {
		return Epoch.Add(time.Duration(e.controlNow))
	}
	return Epoch.Add(time.Duration(e.shards[l.shard].nowNanos))
}

// Post implements Sched. Posts attributed to the control lane (src nil
// or the control lane) go straight into the destination's queue — they
// happen at barriers or while quiescent, when every worker is parked.
// Posts from a node lane stay in the owning shard's queue when the
// destination shares the shard, and are routed through an outbox —
// after a deterministic check against the destination's execution
// frontier — otherwise.
func (e *ShardedEngine) Post(src, dst *Lane, at time.Time, fn func(now time.Time)) {
	e.PostEvent(src, dst, at, funcHandler{}, EventArg{P: fn})
}

// PostEvent implements Sched; see Post for the routing rules.
func (e *ShardedEngine) PostEvent(src, dst *Lane, at time.Time, h Handler, arg EventArg) {
	if src == nil {
		src = e.control
	}
	if dst == nil {
		dst = e.control
	}
	e.PostEventTo(src, dst.LaneRef, at, h, arg)
}

// PostEventTo implements Sched; see Post for the routing rules.
func (e *ShardedEngine) PostEventTo(src *Lane, dst LaneRef, at time.Time, h Handler, arg EventArg) {
	nanos := int64(at.Sub(Epoch))
	if src.id == 0 {
		if e.inPhase {
			panic("sim: control-lane post during the parallel phase")
		}
		if nanos < e.controlNow {
			nanos = e.controlNow
		}
		src.seq++
		ev := event{at: nanos, lane: dst.id, src: 0, seq: src.seq, h: h, arg: arg}
		if dst.id == 0 {
			e.controlQ.push(ev, e.controlNow)
		} else {
			e.shards[dst.shard].queue.push(ev, e.controlNow)
		}
		return
	}
	if dst.id == 0 {
		panic("sim: node-lane post to the control lane")
	}
	s := e.shards[src.shard]
	floor := s.nowNanos
	if !e.inPhase && e.controlNow > floor {
		// Quiescent post: the shard's last event may be far behind the
		// resting clock; clamp to the engine clock like the serial
		// engine does.
		floor = e.controlNow
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
	d := e.shards[dst.shard]
	if nanos < d.frontier {
		panic(fmt.Sprintf(
			"sim: cross-shard post at t=%v violates the %v lookahead (destination shard has executed to %v)",
			time.Duration(nanos), time.Duration(e.lookahead), time.Duration(d.frontier)))
	}
	s.outbox[dst.shard] = append(s.outbox[dst.shard], ev)
}

// SetWorkerLocal implements Sched: each shard worker gets its own
// instance, created lazily on the worker's first use.
func (e *ShardedEngine) SetWorkerLocal(factory func() any) { e.localFn = factory }

// WorkerLocal implements Sched. A lane's worker is its owning shard;
// the instance is created on the shard's own first access, so no
// cross-shard synchronization is needed.
func (e *ShardedEngine) WorkerLocal(l *Lane) any {
	s := e.shards[l.shard]
	if s.local == nil && e.localFn != nil {
		s.local = e.localFn()
	}
	return s.local
}

// At schedules fn on the control lane at virtual time t.
func (e *ShardedEngine) At(t time.Time, fn func()) {
	e.Post(e.control, e.control, t, func(time.Time) { fn() })
}

// After schedules fn on the control lane d from now (the executing
// control event's time, or the resting clock while quiescent).
func (e *ShardedEngine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(Epoch.Add(time.Duration(e.controlNow)+d), fn)
}

// NewTicker schedules fn on the control lane every period.
func (e *ShardedEngine) NewTicker(period, offset time.Duration, fn func(now time.Time)) *Ticker {
	return newTicker(e, e.control, period, offset, fn)
}

// NewLaneTicker schedules fn on lane l every period.
func (e *ShardedEngine) NewLaneTicker(l *Lane, period, offset time.Duration, fn func(now time.Time)) *Ticker {
	return newTicker(e, l, period, offset, fn)
}

// minPending returns the earliest queued timestamp, or false when every
// queue is empty. Outboxes are empty whenever this runs (they are
// drained at each barrier).
func (e *ShardedEngine) minPending() (int64, bool) {
	min, ok := int64(0), false
	consider := func(q *eventQueue) {
		if at, some := q.minAt(); some && (!ok || at < min) {
			min, ok = at, true
		}
	}
	consider(&e.controlQ)
	for _, s := range e.shards {
		consider(&s.queue)
	}
	return min, ok
}

// windowEnd returns the exclusive end of the next window — the
// earliest pending node-lane event plus one lookahead, capped at the
// next undrained control event and at the run deadline — and whether
// any shard owns an event before it. Outboxes are empty whenever this
// runs, so the queue heads are a complete account of pending events.
func (e *ShardedEngine) windowEnd(limit int64) (int64, bool) {
	g1 := int64(math.MaxInt64)
	for _, s := range e.shards {
		if at, ok := s.queue.minAt(); ok && at < g1 {
			g1 = at
		}
	}
	if g1 == math.MaxInt64 {
		return 0, false
	}
	end := g1 + e.lookahead
	if end > limit+1 {
		end = limit + 1
	}
	if at, ok := e.controlQ.minAt(); ok && at < end {
		end = at
	}
	return end, g1 < end
}

// RunUntil executes events with timestamps ≤ deadline in canonical
// order. Each pass of the loop is one window: the coordinator runs the
// control events due within one lookahead of the frontier, hands every
// shard the same window end (see windowEnd), waits for the workers,
// and merges their cross-shard posts. The clock is left at deadline if
// that is later than the last executed event.
func (e *ShardedEngine) RunUntil(deadline time.Time) {
	limit := int64(deadline.Sub(Epoch))
	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	for _, s := range e.shards {
		s := s
		go func() {
			defer wg.Done()
			e.work(s)
		}()
	}
	// stopWorkers is idempotent and also runs via defer when a
	// control-lane event panics, so workers never leak parked on their
	// start channels. It must only run between parallel phases.
	workersUp := true
	stopWorkers := func() {
		if !workersUp {
			return
		}
		workersUp = false
		for _, s := range e.shards {
			close(s.start)
		}
		wg.Wait()
		for _, s := range e.shards {
			s.start = make(chan struct{})
		}
	}
	defer stopWorkers()
	for {
		next, ok := e.minPending()
		if !ok || next > limit {
			break
		}
		e.nowNanos = next
		// Barrier, part 1: the control events due within one lookahead
		// of the frontier, single-threaded. They may post into shard
		// queues (workers are parked).
		ctlBound := next + e.lookahead
		if ctlBound > limit+1 {
			ctlBound = limit + 1
		}
		for ev, ok := e.controlQ.popDue(ctlBound - 1); ok; ev, ok = e.controlQ.popDue(ctlBound - 1) {
			e.controlNow = ev.at
			e.steps++
			ev.fire(Epoch.Add(time.Duration(ev.at)))
		}
		end, ok := e.windowEnd(limit)
		if !ok {
			if e.controlQ.len() == 0 {
				break // nothing can run before the deadline
			}
			continue // only control events are due; drain more next pass
		}
		// Parallel phase: each shard executes its window. Every
		// frontier is in place before any worker starts, because a
		// cross-shard post reads its destination's.
		e.windows++
		e.inPhase = true
		for _, s := range e.shards {
			s.limit = end
			if end > s.frontier {
				s.frontier = end
			}
		}
		for _, s := range e.shards {
			s.start <- struct{}{}
		}
		for range e.shards {
			<-e.done
		}
		e.inPhase = false
		for _, s := range e.shards {
			if s.panicked != nil {
				// Re-raise a worker panic on the calling goroutine so
				// callers (and tests) can observe it normally; the
				// deferred stopWorkers tears the workers down.
				panic(s.panicked)
			}
		}
		// Barrier, part 2: merge cross-shard posts into their residual heaps.
		for _, s := range e.shards {
			for d, out := range s.outbox {
				if len(out) == 0 {
					continue
				}
				for _, ev := range out {
					e.shards[d].queue.heap.push(ev)
				}
				s.outbox[d] = s.outbox[d][:0]
			}
		}
	}
	stopWorkers()
	if limit > e.nowNanos {
		e.nowNanos = limit
	}
	e.now = Epoch.Add(time.Duration(e.nowNanos))
	e.controlNow = e.nowNanos
}

// work is one shard's window loop. A panic inside an event is captured
// and re-raised by the coordinator on the calling goroutine.
func (e *ShardedEngine) work(s *shard) {
	for range s.start {
		if s.panicked == nil {
			s.runWindow()
		}
		e.done <- struct{}{}
	}
}

// runWindow executes the shard's events below its window end in
// canonical order, accounting steps and busy wall-clock time.
func (s *shard) runWindow() {
	defer func() {
		if r := recover(); r != nil {
			s.panicked = r
		}
	}()
	end := s.limit
	if at, ok := s.queue.minAt(); !ok || at >= end {
		return
	}
	t0 := time.Now()
	for ev, ok := s.queue.popDue(end - 1); ok; ev, ok = s.queue.popDue(end - 1) {
		s.nowNanos = ev.at
		s.steps++
		ev.fire(Epoch.Add(time.Duration(ev.at)))
	}
	s.busyNS += int64(time.Since(t0))
}

// RunFor advances the simulation by d of virtual time.
func (e *ShardedEngine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }
