// Package sim provides the discrete-event simulation engine that
// drives AVMON's trace-driven evaluation (paper Section 5).
//
// Engine (engine.go) is a conservative parallel scheduler: node lanes
// are partitioned across P ≥ 1 shards, each with its own queue of
// by-value events (FIFO runs over a residual heap), that advance in
// lockstep windows bounded by the engine's lookahead (the minimum
// cross-lane message latency) — classic conservative PDES with no
// rollback. One shard (New) is the serial case of the same loop: no
// worker goroutine, no lookahead, every event in the canonical order.
//
// Determinism contract. Every event belongs to a lane — an execution
// stream owned by exactly one scheduler thread. Events are totally
// ordered by the canonical key
//
//	(time, lane, local-before-remote, source lane, source seq)
//
// where "source seq" is a counter the posting lane increments on every
// post. The key is a pure function of each lane's own execution
// history, never of scheduler interleaving, so every lane executes a
// byte-identical run for the same seed at any shard count. The rules
// that make this sound, enforced at every shard count:
//
//   - A lane's events may post to the lane itself at any time ≥ now.
//   - A lane's events may post to another lane only at time ≥ the end
//     of the current window (guaranteed when every cross-lane post is
//     a message delivery with latency ≥ the lookahead). The engine
//     panics when a post reaches a shard that has executed past it.
//   - Control-lane events (lane 0) run single-threaded at window
//     barriers, before the window's node-lane events. They must touch
//     only control-owned state and may post to any lane at any time
//     ≥ their own timestamp; they must not read node-lane state, and
//     node lanes cannot post to the control lane.
//   - Randomness is per-lane: draws made while a lane executes must
//     come from that lane's Rand (or, for control events, from the
//     engine Rand), never from another lane's.
package sim

import (
	"math/rand"
	"time"
)

// Epoch is the virtual time origin of every simulation.
var Epoch = time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC)

// Lane is one deterministic execution stream. Lane 0 is the control
// lane (owned by the scheduler's coordinator); AddLane creates node
// lanes. A Lane's seq counter and random source are owned by the
// scheduler thread that executes the lane's events.
type Lane struct {
	LaneRef
	seq  uint64
	rng  *CompactRNG // nil until the lane first draws
	seed int64       // rng's seed: laneSeed(engine seed, id)
}

// LaneRef is all a poster needs of a destination lane, by value, so a
// dense table of destinations (simnet's route table) can be posted to
// without loading each peer's Lane. It never changes once the lane
// exists.
type LaneRef struct {
	id    int32
	shard int32 // owning shard index
}

// ID returns the lane's stable identifier (0 = control lane).
func (l *Lane) ID() int { return int(l.id) }

// Rand returns the lane's private deterministic random source, built on
// the first call. It must only be used while one of the lane's events is
// executing.
func (l *Lane) Rand() *rand.Rand {
	if l.rng == nil {
		l.rng = new(CompactRNG)
		l.rng.Seed(l.seed)
	}
	return &l.rng.rng
}

// newControlLane returns lane 0. Its stream is math/rand's own source,
// not the compact one: every recorded fingerprint draws bootstrap
// contacts and churn from it.
func newControlLane(seed int64) *Lane {
	l := &Lane{rng: new(CompactRNG)}
	l.rng.rng = *rand.New(rand.NewSource(seed))
	return l
}

// laneSeed derives a lane's random stream from the engine seed. The
// mixing constant differs from the one cluster code uses for per-node
// protocol streams, so lane streams (latency, loss) and node streams
// never collide; CompactRand scrambles the result through splitmix64.
func laneSeed(seed int64, id int32) int64 {
	return seed + (int64(id)+1)*-0x61C8864680B583EB // golden-ratio odd constant
}

// EventArg is the by-value payload of a handler-based event (see
// PostEvent). A and B are free payload words; P carries a pointer-shaped
// value (a message, a buffer) without forcing the poster to allocate a
// closure around it.
type EventArg struct {
	A, B uint64
	P    any
}

// Handler executes handler-based events. Implementations are typically
// long-lived objects (a network, a ticker) so that posting an event
// allocates nothing: the event stores the handler interface and its
// by-value EventArg directly in the queue entry.
type Handler interface {
	Fire(now time.Time, arg EventArg)
}

// funcHandler adapts the closure-based Post API onto handler events: a
// zero-size type whose interface value costs no allocation, with the
// closure riding in EventArg.P.
type funcHandler struct{}

func (funcHandler) Fire(now time.Time, arg EventArg) {
	arg.P.(func(now time.Time))(now)
}

// event is one scheduled callback, stored by value in the queues.
type event struct {
	at   int64 // nanoseconds since Epoch
	lane int32 // destination lane
	src  int32 // posting lane
	seq  uint64
	h    Handler
	arg  EventArg
}

// fire executes the event's handler.
func (ev *event) fire(now time.Time) { ev.h.Fire(now, ev.arg) }

// before is the canonical total order: time, then destination lane,
// then lane-local posts before cross-lane posts, then posting lane,
// then the poster's sequence counter. Every component is a pure
// function of deterministic per-lane execution, so runs at every shard
// count sort identically.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	aLocal, bLocal := a.src == a.lane, b.src == b.lane
	if aLocal != bLocal {
		return aLocal
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

const numRuns = 3       // the delays a paper-figure run repeats: delivery latency, protocol period, zero
const blockEvents = 113 // 113 events and a link fill the 8192-byte size class; at 56 twice as many ties straddle a block

// eventRun is a FIFO of events in canonical order, stored in linked
// blocks and keyed by the posting delay its events share: posts made at
// non-decreasing times with one delay come due in posting order.
type eventRun struct {
	delay      int64
	n          int
	head, tail *eventBlock
	hi, ti     int // first live slot of head, one past the last of tail
}

type eventBlock struct {
	ev   [blockEvents]event
	next *eventBlock
}

// eventQueue is a k-way merge of delay-keyed FIFO runs over a residual
// binary heap. Each run and the heap is in canonical order and peek
// takes the minimum of their heads, so the queue pops exactly what one
// heap would: where push files an event is a speed hint, checked against
// the run's tail and never trusted. DESIGN.md, "The event queue".
type eventQueue struct {
	heap   eventHeap
	runs   [numRuns]eventRun
	missed int64 // delay of the last push that no run was keyed by
	quiet  int   // pops since the heap was last over a quarter full
	free   *eventBlock
	nfree  int // ≤ 2·numRuns: a run at steady length sheds and regains a block or two, and allocates nothing
}

func (q *eventQueue) len() int {
	n := len(q.heap)
	for i := range q.runs {
		n += q.runs[i].n
	}
	return n
}

// push queues ev, posted at time now. A post with no one clock behind
// it (a barrier merge) pushes onto q.heap instead.
func (q *eventQueue) push(ev event, now int64) {
	delay := ev.at - now
	for i := range q.runs {
		r := &q.runs[i]
		if r.delay != delay {
			continue
		}
		if r.n == 0 || !ev.before(r.tail.ev[r.ti-1]) {
			q.append(r, ev)
			return
		}
		// ev sorts before the tail: one handler's sends share an at in
		// any lane order. Insert it if its slot is in the tail block.
		tb, last, lo := r.tail, r.ti-1, 0
		if tb == r.head {
			lo = r.hi
		}
		if ev.before(tb.ev[lo]) {
			q.heap.push(ev)
			return
		}
		j := last
		for ev.before(tb.ev[j-1]) {
			j--
		}
		q.append(r, tb.ev[last])
		copy(tb.ev[j+1:last+1], tb.ev[j:last])
		tb.ev[j] = ev
		return
	}
	if delay == q.missed {
		// The delay repeats: give it an empty run. One-off delays (a
		// birth minute's random first offsets) never squat on one.
		for i := range q.runs {
			if r := &q.runs[i]; r.n == 0 {
				r.delay = delay
				q.append(r, ev)
				return
			}
		}
	}
	q.missed = delay
	q.heap.push(ev)
}

// append writes ev after r's tail.
func (q *eventQueue) append(r *eventRun, ev event) {
	if r.tail == nil || r.ti == blockEvents {
		b := q.free
		if b != nil {
			q.free, b.next, q.nfree = b.next, nil, q.nfree-1
		} else {
			b = new(eventBlock)
		}
		link := &r.head
		if r.tail != nil {
			link = &r.tail.next
		}
		*link, r.tail, r.ti = b, b, 0
	}
	r.tail.ev[r.ti] = ev
	r.ti++
	r.n++
}

// peek returns which part holds the canonical minimum (a run's index,
// numRuns for the heap, -1 when the queue is empty) and its time.
func (q *eventQueue) peek() (src int, at int64) {
	src = -1
	var min *event
	if len(q.heap) > 0 {
		src, min = numRuns, &q.heap[0]
	}
	for i := range q.runs {
		if r := &q.runs[i]; r.n > 0 {
			if h := &r.head.ev[r.hi]; min == nil || h.before(*min) {
				src, min = i, h
			}
		}
	}
	if min != nil {
		at = min.at
	}
	return src, at
}

// minAt returns the earliest queued timestamp, or false when empty.
func (q *eventQueue) minAt() (int64, bool) {
	src, at := q.peek()
	return at, src >= 0
}

// popDue pops the canonical minimum if it is due by limit.
func (q *eventQueue) popDue(limit int64) (ev event, ok bool) {
	src, at := q.peek()
	if src < 0 || at > limit {
		return ev, false
	}
	// Give the heap's array back once it has been at most a quarter full
	// for cap pops: a drained birth transient, not a fill-and-drain cycle.
	if c := cap(q.heap); 4*len(q.heap) > c {
		q.quiet = 0
	} else if q.quiet++; q.quiet > c && c >= 2*blockEvents {
		q.heap, q.quiet = append(make(eventHeap, 0, c/2), q.heap...), 0
	}
	if src == numRuns {
		ev = q.heap.pop()
		// A queue popped empty cannot count quiet pops: a control queue
		// after the birth minute would hold its array for good. Give it
		// back at once; a busy node queue's fill-and-drain cycles never
		// get here, its tickers sit in the runs.
		if len(q.heap) == 0 && cap(q.heap) >= 2*blockEvents && q.len() == 0 {
			q.heap = nil
		}
		return ev, true
	}
	r := &q.runs[src]
	b := r.head
	ev = b.ev[r.hi]
	b.ev[r.hi].h, b.ev[r.hi].arg.P = nil, nil // release the closure for GC
	r.hi++
	if r.n--; r.n == 0 {
		r.hi, r.ti = 0, 0 // head == tail: reuse the block from its start
	} else if r.hi == blockEvents {
		// Storage follows what is live: past a few spares, to the collector.
		r.head, r.hi, b.next = b.next, 0, nil
		if q.nfree < 2*numRuns {
			b.next, q.free = q.free, b
			q.nfree++
		}
	}
	return ev, true
}

// eventHeap is a hand-rolled binary min-heap over by-value events
// (container/heap would box every event through interface{}).
type eventHeap []event

func (q *eventHeap) push(ev event) {
	h := *q
	h = append(h, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

func (q *eventHeap) pop() event {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{} // release the closure for GC
	h = h[:last]
	*q = h
	// Sift the moved element down.
	i := 0
	for {
		left := 2*i + 1
		if left >= last {
			break
		}
		smallest := left
		if right := left + 1; right < last && h[right].before(h[left]) {
			smallest = right
		}
		if !h[smallest].before(h[i]) {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// Ticker repeatedly schedules a callback with a fixed period until
// stopped. It is the simulation analogue of time.Ticker, with a phase
// offset per ticker so that periods run out of step across lanes (paper
// Section 3.2). A ticker is bound to one lane; Stop must be called from
// that lane's events (or while the engine is quiescent).
type Ticker struct {
	e       *Engine
	lane    *Lane
	period  time.Duration
	fn      func(now time.Time)
	stopped bool
}

// NewTicker schedules fn on the control lane every period, with the
// first firing after offset. Stop prevents all future firings.
func (e *Engine) NewTicker(period, offset time.Duration, fn func(now time.Time)) *Ticker {
	return newTicker(e, e.control, period, offset, fn)
}

// NewLaneTicker schedules fn on lane l every period, with the first
// firing after offset.
func (e *Engine) NewLaneTicker(l *Lane, period, offset time.Duration, fn func(now time.Time)) *Ticker {
	return newTicker(e, l, period, offset, fn)
}

func newTicker(e *Engine, l *Lane, period, offset time.Duration, fn func(now time.Time)) *Ticker {
	if offset < 0 {
		offset = 0
	}
	t := &Ticker{e: e, lane: l, period: period, fn: fn}
	e.PostEvent(l, l, e.LaneNow(l).Add(offset), t, EventArg{})
	return t
}

// Fire implements Handler: the ticker itself is the event handler, so
// the steady-state reschedule of every simulated protocol period posts
// without allocating (no per-firing method-value closure).
func (t *Ticker) Fire(now time.Time, _ EventArg) {
	if t.stopped {
		return
	}
	t.fn(now)
	if t.stopped { // fn may have stopped the ticker
		return
	}
	t.e.PostEvent(t.lane, t.lane, now.Add(t.period), t, EventArg{})
}

// Stop cancels future firings. It is idempotent.
func (t *Ticker) Stop() { t.stopped = true }
