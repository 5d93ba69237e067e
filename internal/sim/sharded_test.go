package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// laneTrace records one lane's execution sequence. Appends happen only
// while the lane's own events execute (single-threaded by the engine
// contract), so no locking is needed even under the sharded engine.
// The observable determinism contract is exactly per-lane: each lane
// (and the control lane) executes the same event sequence with the
// same timestamps and random draws in the serial and sharded engines.
// The global interleaving ACROSS lanes is intentionally unobservable.
type laneTrace struct {
	lane  *Lane
	lines []string
}

func (lt *laneTrace) add(now time.Time, tag string) {
	lt.lines = append(lt.lines, fmt.Sprintf("%d@%v:%s", lt.lane.ID(), now.Sub(Epoch), tag))
}

// traceShape parameterizes traceWorkload; roster and stride must be
// positive.
type traceShape struct {
	lookahead time.Duration // floor of every cross-lane post distance
	roster    int           // lanes born before the run; as many again are born during it
	stride    int           // every stride-th lane is hot; the rest only react to posts
	horizon   time.Duration
}

// traceWorkload builds a randomized but fully deterministic multi-lane
// workload on any Sched and returns its merged per-lane trace. Each
// lane event logs a lane-random draw, reschedules itself locally with
// a lane-random delay, and posts to a lane-random peer at ≥ lookahead
// — the shape of a simulated network — while a control ticker births
// late lanes and posts lifecycle events, exercising the control-lane
// rules. Only hot lanes (every stride-th) start with an event and a
// ticker; with stride equal to the shard count the round-robin
// partition puts them all on shard 0, so the other shards sit through
// windows with nothing to run until a post reaches them.
func traceWorkload(t *testing.T, mk func() Sched, w traceShape) []string {
	t.Helper()
	eng := mk()
	var traces []*laneTrace
	control := &laneTrace{lane: eng.Control()}
	var laneEvent func(lt *laneTrace, depth int) func(time.Time)
	laneEvent = func(lt *laneTrace, depth int) func(time.Time) {
		return func(now time.Time) {
			l := lt.lane
			lt.add(now, fmt.Sprintf("d%d r%d", depth, l.Rand().Intn(1000)))
			if depth >= 3 {
				return
			}
			// Local reschedule at any delay, including zero.
			local := time.Duration(l.Rand().Int63n(int64(20 * time.Millisecond)))
			eng.Post(l, l, now.Add(local), laneEvent(lt, depth+1))
			// Cross-lane post at ≥ lookahead, like a message delivery.
			// The peer is drawn from the fixed initial roster: node
			// events must not read the control-owned growing roster
			// (that is the control-lane contract — the cluster keeps
			// its RandomAlive bootstrap oracle control-side for the
			// same reason).
			peer := traces[l.Rand().Intn(w.roster)]
			d := w.lookahead + time.Duration(l.Rand().Int63n(int64(40*time.Millisecond)))
			eng.Post(l, peer.lane, now.Add(d), laneEvent(peer, depth+1))
		}
	}
	birth := func() {
		lt := &laneTrace{lane: eng.AddLane()}
		hot := len(traces)%w.stride == 0
		traces = append(traces, lt)
		control.add(eng.Now(), fmt.Sprintf("birth %d", lt.lane.ID()))
		if !hot {
			return
		}
		// Control → node lifecycle post at the control event's time.
		off := time.Duration(eng.Rand().Int63n(int64(30 * time.Millisecond)))
		eng.Post(nil, lt.lane, eng.Now().Add(off), laneEvent(lt, 0))
		eng.NewLaneTicker(lt.lane, 35*time.Millisecond, off, func(now time.Time) {
			lt.add(now, "tick")
		})
	}
	for i := 0; i < w.roster; i++ {
		birth()
	}
	eng.NewTicker(40*time.Millisecond, 10*time.Millisecond, func(now time.Time) {
		control.add(now, "ctick")
		if len(traces) < 2*w.roster {
			birth()
		}
	})
	eng.RunFor(w.horizon)
	out := append([]string(nil), control.lines...)
	for _, lt := range traces {
		out = append(out, lt.lines...)
	}
	out = append(out, fmt.Sprintf("steps=%d elapsed=%v pending=%d",
		eng.Steps(), eng.Elapsed(), eng.Pending()))
	return out
}

// sameTrace fails the test at the first line where a sharded trace
// departs from the serial one.
func sameTrace(t *testing.T, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace length %d, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace diverges at line %d:\nserial:  %s\nsharded: %s", i, want[i], got[i])
		}
	}
}

// TestShardedMatchesSerial is the engine-level determinism contract:
// for one seed, the sharded engine's per-lane execution traces are
// identical to the serial engine's at every shard count.
func TestShardedMatchesSerial(t *testing.T) {
	const seed = 42
	// Dense: six lanes, all hot, posting across lanes at ≥ 50ms.
	shape := traceShape{lookahead: 50 * time.Millisecond, roster: 6, stride: 1, horizon: 700 * time.Millisecond}
	want := traceWorkload(t, func() Sched { return New(seed) }, shape)
	if len(want) < 100 {
		t.Fatalf("workload too small to be meaningful: %d trace lines", len(want))
	}
	for _, shards := range []int{1, 2, 3, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got := traceWorkload(t, func() Sched {
				e, err := NewSharded(seed, shards, shape.lookahead)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}, shape)
			sameTrace(t, want, got)
		})
	}
}

// FuzzShardedMatchesSerial fuzzes the engine-level contract over the
// dimensions that shape the window grid — seed, shard count, lookahead,
// how many hot lanes pile onto shard 0, and horizon — and asserts the
// per-lane execution traces stay byte-identical to the serial engine.
func FuzzShardedMatchesSerial(f *testing.F) {
	// (seed, shards, lookahead µs, hot lanes per shard, horizon ms)
	f.Add(int64(1234), 3, int64(50_000), 2, int64(400))
	f.Add(int64(1234), 4, int64(50_000), 2, int64(400))
	f.Add(int64(1234), 1, int64(50_000), 6, int64(400))
	f.Add(int64(1234), 2, int64(50_000), 3, int64(400))
	f.Add(int64(77), 8, int64(50_000), 1, int64(500))
	f.Add(int64(77), 5, int64(50_000), 2, int64(500))
	// Sparse: one hot lane among eight shards and a 1ms lookahead
	// against 35ms tickers, so seven shards have nothing to run in most
	// windows and the grid skips long idle gaps.
	f.Add(int64(7), 8, int64(1_000), 1, int64(300))
	f.Fuzz(func(t *testing.T, seed int64, shards int, lookaheadMicros int64, hot int, horizonMillis int64) {
		// Clamp into the constructor's valid space deterministically.
		mod := func(v, n int64) int64 { return (v%n + n) % n }
		shards = 1 + int(mod(int64(shards)-1, 8))
		hot = 1 + int(mod(int64(hot)-1, 6))
		shape := traceShape{
			lookahead: time.Duration(1+mod(lookaheadMicros-1, 100_000)) * time.Microsecond,
			roster:    hot * shards,
			stride:    shards,
			horizon:   time.Duration(1+mod(horizonMillis-1, 600)) * time.Millisecond,
		}
		want := traceWorkload(t, func() Sched { return New(seed) }, shape)
		got := traceWorkload(t, func() Sched {
			e, err := NewSharded(seed, shards, shape.lookahead)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}, shape)
		sameTrace(t, want, got)
	})
}

// TestSchedulerStatsShape sanity-checks SchedStats bookkeeping.
func TestSchedulerStatsShape(t *testing.T) {
	e, err := NewSharded(9, 3, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 7 // not a multiple of the shard count
	for i := 0; i < lanes; i++ {
		l := e.AddLane()
		e.NewLaneTicker(l, 11*time.Millisecond, 0, func(time.Time) {})
	}
	e.RunFor(5 * time.Second)
	st := e.SchedStats()
	if st.Shards != 3 || st.Lookahead != 50*time.Millisecond {
		t.Errorf("stats header wrong: %+v", st)
	}
	if st.Windows == 0 || st.Barriers != st.Windows {
		t.Errorf("window/barrier counters wrong: windows=%d barriers=%d, want equal and nonzero",
			st.Windows, st.Barriers)
	}
	gotLanes, steps := 0, uint64(0)
	for _, sh := range st.PerShard {
		gotLanes += sh.Lanes
		steps += sh.Steps
	}
	if gotLanes != lanes {
		t.Errorf("per-shard lane counts sum to %d, want %d", gotLanes, lanes)
	}
	if total := e.Steps(); steps > total {
		t.Errorf("shard steps %d exceed engine total %d", steps, total)
	}
}

// TestShardedSplitRuns checks that pausing and resuming (multiple
// RunFor calls, with quiescent scheduling in between) preserves the
// serial equivalence — the window grid is not required to align across
// calls.
func TestShardedSplitRuns(t *testing.T) {
	const seed = 7
	run := func(mk func() Sched) []string {
		eng := mk()
		lt1, lt2 := &laneTrace{lane: eng.AddLane()}, &laneTrace{lane: eng.AddLane()}
		var ping func(lt, peer *laneTrace) func(time.Time)
		ping = func(lt, peer *laneTrace) func(time.Time) {
			return func(now time.Time) {
				lt.add(now, fmt.Sprintf("r%d", lt.lane.Rand().Intn(100)))
				eng.Post(lt.lane, peer.lane, now.Add(60*time.Millisecond), ping(peer, lt))
			}
		}
		eng.Post(nil, lt1.lane, Epoch.Add(5*time.Millisecond), ping(lt1, lt2))
		// Uneven increments that do not divide the 50ms lookahead.
		for _, d := range []time.Duration{13, 77, 31, 200, 49} {
			eng.RunFor(d * time.Millisecond)
			// Quiescent cross-lane scheduling between runs.
			eng.Post(nil, lt2.lane, eng.Now(), func(now time.Time) {
				lt2.add(now, "q")
			})
		}
		eng.RunFor(300 * time.Millisecond)
		out := append(append([]string(nil), lt1.lines...), lt2.lines...)
		return append(out, fmt.Sprintf("steps=%d elapsed=%v", eng.Steps(), eng.Elapsed()))
	}
	want := run(func() Sched { return New(seed) })
	for _, shards := range []int{1, 2} {
		got := run(func() Sched {
			e, err := NewSharded(seed, shards, 50*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			return e
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("shards=%d diverged:\nserial:  %v\nsharded: %v", shards, want, got)
		}
	}
}

// TestShardedLookaheadViolationPanics pins the deterministic guard: a
// cross-shard post inside the current window is a programming error,
// not a silent wrong answer. The panic originates on a worker and must
// surface on the goroutine that called RunFor.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	e, err := NewSharded(1, 2, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := e.AddLane(), e.AddLane() // round-robin: different shards
	defer func() {
		if recover() == nil {
			t.Error("lookahead violation did not panic")
		}
	}()
	e.Post(nil, l1, Epoch.Add(10*time.Millisecond), func(now time.Time) {
		e.Post(l1, l2, now.Add(time.Millisecond), func(time.Time) {}) // < lookahead
	})
	e.RunFor(time.Second)
}

// TestShardedNowPanicsInPhase pins the other guard: node-lane events
// must use their callback time, not engine Now().
func TestShardedNowPanicsInPhase(t *testing.T) {
	e, err := NewSharded(1, 2, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	l := e.AddLane()
	defer func() {
		if recover() == nil {
			t.Error("Now() during the parallel phase did not panic")
		}
	}()
	e.Post(nil, l, Epoch.Add(time.Millisecond), func(time.Time) { e.Now() })
	e.RunFor(time.Second)
}

// TestShardedQuiescentPastPostClamped mirrors the serial engine's
// clamp: a node-lane post into the past made between Run calls fires
// at the resting clock, not at the shard's stale local time.
func TestShardedQuiescentPastPostClamped(t *testing.T) {
	for _, mk := range []func() Sched{
		func() Sched { return New(1) },
		func() Sched { e, _ := NewSharded(1, 2, 50*time.Millisecond); return e },
	} {
		eng := mk()
		l := eng.AddLane()
		eng.RunFor(time.Hour) // the lane never executes; its local clock is stale
		var at time.Duration
		eng.Post(l, l, Epoch, func(now time.Time) { at = now.Sub(Epoch) })
		eng.RunFor(time.Second)
		if at != time.Hour {
			t.Errorf("%T: past-time quiescent post fired at %v, want 1h", eng, at)
		}
	}
}

// TestShardedControlPanicStopsWorkers pins the teardown path: a panic
// inside a control-lane event must unwind RunFor without leaking
// parked shard workers.
func TestShardedControlPanicStopsWorkers(t *testing.T) {
	e, err := NewSharded(1, 2, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		e, err = NewSharded(1, 2, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		e.After(time.Millisecond, func() { panic("boom") })
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("control-event panic not propagated")
				}
			}()
			e.RunFor(time.Second)
		}()
	}
	// Give exited workers a moment to unwind before counting.
	time.Sleep(50 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Errorf("goroutines grew from %d to %d: shard workers leaked", before, after)
	}
}

// TestShardedConfigValidation covers constructor errors.
func TestShardedConfigValidation(t *testing.T) {
	if _, err := NewSharded(1, 0, time.Millisecond); err == nil {
		t.Error("shard count 0 accepted")
	}
	if _, err := NewSharded(1, 2, 0); err == nil {
		t.Error("zero lookahead accepted")
	}
}

// TestShardedClockSemantics mirrors the serial engine's RunUntil clock
// behavior: the clock lands on the deadline even when the queue drains
// early, and quiescent After scheduling uses the resting clock.
func TestShardedClockSemantics(t *testing.T) {
	e, err := NewSharded(1, 2, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	e.After(time.Hour, func() { fired = true })
	e.RunFor(time.Minute)
	if fired {
		t.Error("future event fired early")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	if e.Elapsed() != time.Minute {
		t.Errorf("Elapsed = %v, want 1m", e.Elapsed())
	}
	e.RunFor(time.Hour)
	if !fired {
		t.Error("event never fired")
	}
	if e.Elapsed() != time.Minute+time.Hour {
		t.Errorf("Elapsed = %v, want 1h1m", e.Elapsed())
	}
}
