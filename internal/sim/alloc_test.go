package sim

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// countingHandler is a long-lived Handler as the PostEvent contract
// intends: the interface value wraps an existing pointer, so posting
// boxes nothing.
type countingHandler struct {
	fired int
	last  EventArg
}

func (h *countingHandler) Fire(now time.Time, arg EventArg) {
	h.fired++
	h.last = arg
}

// TestZeroAllocEventPostDeliver gates the by-value event path: at
// steady state (the delay's run claimed, its block spare), posting a
// handler event and delivering it performs zero heap allocations.
func TestZeroAllocEventPostDeliver(t *testing.T) {
	eng := New(1)
	lane := eng.AddLane()
	h := &countingHandler{}
	// Warm the queue: the repeated delay claims a run.
	for i := 0; i < 64; i++ {
		eng.PostEvent(lane, lane, eng.Now().Add(time.Millisecond), h, EventArg{A: uint64(i)})
	}
	eng.Run()
	firedBefore := h.fired
	allocs := testing.AllocsPerRun(200, func() {
		eng.PostEvent(lane, lane, eng.Now().Add(time.Millisecond), h, EventArg{A: 7, B: 9})
		eng.RunFor(time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("post+deliver allocates %v objects per event, want 0", allocs)
	}
	if h.fired == firedBefore {
		t.Fatal("gate measured nothing: no events fired")
	}
	if h.last.A != 7 || h.last.B != 9 {
		t.Errorf("EventArg = %+v, want A=7 B=9", h.last)
	}
}

// TestZeroAllocTickerSteadyState gates the protocol-period driver:
// once a ticker is running, each firing (callback + self-reschedule)
// allocates nothing.
func TestZeroAllocTickerSteadyState(t *testing.T) {
	eng := New(2)
	lane := eng.AddLane()
	count := 0
	eng.NewLaneTicker(lane, time.Second, 0, func(time.Time) { count++ })
	eng.RunFor(5 * time.Second) // warm up past the first firings
	countBefore := count
	allocs := testing.AllocsPerRun(100, func() {
		eng.RunFor(time.Second)
	})
	if allocs != 0 {
		t.Errorf("ticker firing allocates %v objects, want 0", allocs)
	}
	if count == countBefore {
		t.Fatal("gate measured nothing: ticker did not fire")
	}
}

// queueBytes is the storage q holds: the residual heap's array, every
// block its runs chain and the spares.
func queueBytes(q *eventQueue) uintptr {
	n := uintptr(cap(q.heap))*unsafe.Sizeof(event{}) + uintptr(q.nfree)*unsafe.Sizeof(eventBlock{})
	for i := range q.runs {
		for b := q.runs[i].head; b != nil; b = b.next {
			n += unsafe.Sizeof(*b)
		}
	}
	return n
}

// TestEventQueueGivesBackTransient is the memory gate behind the
// repository benchmark's heap_live_mb: a birth minute posts every
// periodic source's random first offset and a larger transient of
// one-off events into the residual heap; ten periods on the periodic
// events sit in a run, and neither the heap's array nor the runs'
// blocks may keep the peak (power-of-two rings kept 4 % of the whole
// simulation's live heap) — nor may a control queue that drains and goes
// idle (its array was 2 % of it).
func TestEventQueueGivesBackTransient(t *testing.T) {
	const (
		periodic = 40_000
		random   = 100_000
		period   = int64(time.Minute)
	)
	if size := unsafe.Sizeof(eventBlock{}); size > 8192 {
		t.Errorf("an eventBlock is %d bytes: past the 8192-byte size class blockEvents is sized for", size)
	}
	var q eventQueue
	rng := rand.New(rand.NewSource(1))
	h := &countingHandler{}
	var seq uint64
	post := func(at, now int64, lane int32) {
		seq++
		q.push(event{at: at, lane: lane, src: lane, seq: seq, h: h}, now)
	}
	for i := 0; i < periodic; i++ {
		post(rng.Int63n(period), 0, 1)
	}
	for i := 0; i < random; i++ {
		post(rng.Int63n(period), 0, 2)
	}
	peak := queueBytes(&q)
	for ev, ok := q.popDue(10 * period); ok; ev, ok = q.popDue(10 * period) {
		if ev.lane == 1 {
			post(ev.at+period, ev.at, 1)
		}
	}
	if q.len() != periodic {
		t.Fatalf("%d events queued after ten periods, want the %d periodic ones", q.len(), periodic)
	}
	live := periodic * unsafe.Sizeof(event{})
	if held := queueBytes(&q); float64(held) > 1.3*float64(live) {
		t.Errorf("queue holds %d bytes for %d live (%.2fx, want ≤ 1.3x; peak was %d)",
			held, live, float64(held)/float64(live), peak)
	}

	// An engine's control queue takes the one-off births of the first
	// minute and then goes idle: it has no later pop to shrink on.
	eng := New(1)
	for i := 0; i < periodic+random; i++ {
		eng.After(time.Duration(rng.Int63n(period)), func() {})
	}
	peak = queueBytes(&eng.controlQ)
	eng.RunFor(10 * time.Minute)
	if held := queueBytes(&eng.controlQ); eng.Pending() != 0 || held > peak/100 {
		t.Errorf("idle control queue holds %d bytes for %d events (peak was %d)", held, eng.Pending(), peak)
	}
}
