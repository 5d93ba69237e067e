package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// laneTrace records one lane's execution sequence. Appends happen only
// while the lane's own events execute (single-threaded by the engine
// contract), so no locking is needed at any shard count. The
// observable determinism contract is exactly per-lane: each lane (and
// the control lane) executes the same event sequence with the same
// timestamps and random draws at every shard count. The global
// interleaving ACROSS lanes is unobservable, except on one shard, where
// it is the canonical order itself (see traceWorkload).
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
// workload on eng and returns its merged per-lane trace. Each
// lane event logs a lane-random draw, reschedules itself locally with
// a lane-random delay, and posts to a lane-random peer at ≥ lookahead
// — the shape of a simulated network — while a control ticker births
// late lanes and posts lifecycle events to new and running lanes,
// exercising the control-lane rules. Only hot lanes (every stride-th)
// start with an event and a ticker; with stride equal to the shard
// count the round-robin partition puts them all on shard 0, so the
// other shards sit through windows with nothing to run until a post
// reaches them.
//
// One shard is the reference every other count is compared with, so on
// one shard the workload also states the order outright: the canonical
// key of every event it executes, in execution order, must be sorted by
// event.before, and a window may end only at a control event or the
// deadline.
func traceWorkload(t *testing.T, eng *Engine, w traceShape) []string {
	t.Helper()
	var traces []*laneTrace
	control := &laneTrace{lane: eng.control}
	// order is the one-shard execution log (several shards would race on
	// it). post is eng.Post logging the event's key as it fires; keyed
	// wraps a ticker body on l the same way.
	var order []event
	executed := func(now time.Time, dst, src *Lane, seq uint64) {
		if len(eng.shards) == 1 {
			order = append(order, event{at: int64(now.Sub(Epoch)), lane: dst.id, src: src.id, seq: seq})
		}
	}
	post := func(src, dst *Lane, at time.Time, fn func(time.Time)) {
		from := src
		if from == nil {
			from = eng.control
		}
		seq := from.seq + 1
		eng.Post(src, dst, at, func(now time.Time) {
			executed(now, dst, from, seq)
			fn(now)
		})
	}
	keyed := func(l *Lane, fn func(time.Time)) func(time.Time) {
		seq := l.seq + 1 // the ticker's first post
		return func(now time.Time) {
			executed(now, l, l, seq)
			fn(now)
			seq = l.seq + 1 // Fire reschedules as soon as this returns
		}
	}
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
			post(l, l, now.Add(local), laneEvent(lt, depth+1))
			// Cross-lane post at ≥ lookahead, like a message delivery.
			// The peer is drawn from the fixed initial roster: node
			// events must not read the control-owned growing roster
			// (that is the control-lane contract — the cluster keeps
			// its RandomAlive bootstrap oracle control-side for the
			// same reason).
			peer := traces[l.Rand().Intn(w.roster)]
			d := w.lookahead + time.Duration(l.Rand().Int63n(int64(40*time.Millisecond)))
			post(l, peer.lane, now.Add(d), laneEvent(peer, depth+1))
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
		post(nil, lt.lane, eng.Now().Add(off), laneEvent(lt, 0))
		eng.NewLaneTicker(lt.lane, 35*time.Millisecond, off, keyed(lt.lane, func(now time.Time) {
			lt.add(now, "tick")
		}))
	}
	for i := 0; i < w.roster; i++ {
		birth()
	}
	eng.NewTicker(40*time.Millisecond, 10*time.Millisecond, keyed(eng.control, func(now time.Time) {
		control.add(now, "ctick")
		if len(traces) < 2*w.roster {
			birth()
		}
		// Control → a running lane, soon after the control event's own
		// time: run a window late, it lands behind the lane's clock.
		peer := traces[eng.Rand().Intn(w.roster)]
		soon := time.Duration(eng.Rand().Int63n(int64(30 * time.Millisecond)))
		post(nil, peer.lane, now.Add(soon), func(now time.Time) { peer.add(now, "ctl") })
	}))
	eng.RunFor(w.horizon)
	for i := 1; i < len(order); i++ {
		if order[i].before(order[i-1]) {
			a, b := order[i-1], order[i]
			t.Fatalf("one shard executed (t=%v lane %d src %d seq %d) before (t=%v lane %d src %d seq %d): not the canonical order",
				time.Duration(a.at), a.lane, a.src, a.seq, time.Duration(b.at), b.lane, b.src, b.seq)
		}
	}
	if len(eng.shards) == 1 && eng.windows > eng.steps+1 {
		t.Fatalf("one shard ran %d windows around %d control events: a window ended at neither a control event nor the deadline",
			eng.windows, eng.steps)
	}
	out := append([]string(nil), control.lines...)
	for _, lt := range traces {
		out = append(out, lt.lines...)
	}
	out = append(out, fmt.Sprintf("steps=%d elapsed=%v pending=%d",
		eng.Steps(), eng.Elapsed(), eng.Pending()))
	return out
}

// sameTrace fails the test at the first line where a sharded trace
// departs from the one-shard one.
func sameTrace(t *testing.T, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace length %d, one shard's %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace diverges at line %d:\none shard: %s\nsharded:   %s", i, want[i], got[i])
		}
	}
}

// noWorkersLeft fails the test if more goroutines exist than before
// its engines ran. Run returns once every worker has passed its last
// statement, which is a moment before the runtime stops counting it.
func noWorkersLeft(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d: shard workers leaked", before, after)
	}
}

// sharded is NewSharded for arguments the test knows are valid.
func sharded(t *testing.T, seed int64, shards int, lookahead time.Duration) *Engine {
	t.Helper()
	e, err := NewSharded(seed, shards, lookahead)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestShardedMatchesSerial is the engine-level determinism contract:
// for one seed, the per-lane execution traces at every shard count are
// identical to one shard's, which traceWorkload holds to the canonical
// order (one shard given a lookahead must not schedule by it).
func TestShardedMatchesSerial(t *testing.T) {
	const seed = 42
	// Dense: six lanes, all hot, posting across lanes at ≥ 50ms.
	shape := traceShape{lookahead: 50 * time.Millisecond, roster: 6, stride: 1, horizon: 700 * time.Millisecond}
	want := traceWorkload(t, New(seed), shape)
	if len(want) < 100 {
		t.Fatalf("workload too small to be meaningful: %d trace lines", len(want))
	}
	for _, shards := range []int{1, 2, 3, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sameTrace(t, want, traceWorkload(t, sharded(t, seed, shards, shape.lookahead), shape))
		})
	}
}

// FuzzShardedMatchesSerial fuzzes the engine-level contract over the
// dimensions that shape the window grid — seed, shard count, lookahead,
// how many hot lanes pile onto shard 0, and horizon — and asserts the
// per-lane execution traces stay byte-identical to one shard's.
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
	// One shard with a 1ms lookahead it must ignore: bounding its windows
	// by it would run a hundred around eight control events.
	f.Add(int64(7), 1, int64(1_000), 6, int64(300))
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
		want := traceWorkload(t, New(seed), shape)
		sameTrace(t, want, traceWorkload(t, sharded(t, seed, shards, shape.lookahead), shape))
	})
}

// TestSchedulerStatsShape sanity-checks SchedStats bookkeeping.
func TestSchedulerStatsShape(t *testing.T) {
	e := sharded(t, 9, 3, 50*time.Millisecond)
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
// one-shard equivalence — the window grid is not required to align
// across calls.
func TestShardedSplitRuns(t *testing.T) {
	const seed = 7
	run := func(eng *Engine) []string {
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
	want := run(New(seed))
	for _, shards := range []int{1, 2} {
		got := run(sharded(t, seed, shards, 50*time.Millisecond))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("shards=%d diverged:\none shard: %v\nsharded:   %v", shards, want, got)
		}
	}
}

// TestShardedLookaheadViolationPanics pins the deterministic guard: a
// cross-shard post inside the current window is a programming error,
// not a silent wrong answer. Whether it originates on the calling
// goroutine (shard 0) or on a worker, the panic must surface on the
// goroutine that called RunFor, and no worker may outlive it.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	before := runtime.NumGoroutine()
	for from := 0; from < 2; from++ {
		e := sharded(t, 1, 2, 50*time.Millisecond)
		lanes := []*Lane{e.AddLane(), e.AddLane()} // round-robin: different shards
		src, dst := lanes[from], lanes[1-from]
		e.Post(nil, src, Epoch.Add(10*time.Millisecond), func(now time.Time) {
			e.Post(src, dst, now.Add(time.Millisecond), func(time.Time) {}) // < lookahead
		})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lookahead violation on shard %d did not panic", from)
				}
			}()
			e.RunFor(time.Second)
		}()
	}
	noWorkersLeft(t, before)
}

// TestShardedWindowEndsAtControlEvent: a control event too far ahead to
// run at a window's opening barrier ends the window, at every shard
// count — left inside it, it would run one window late and its post
// would reach the lane behind the lane's clock.
func TestShardedWindowEndsAtControlEvent(t *testing.T) {
	for _, e := range []*Engine{New(1), sharded(t, 1, 2, 50*time.Millisecond)} {
		l := e.AddLane()
		var got []time.Duration
		mark := func(now time.Time) { got = append(got, now.Sub(Epoch)) }
		e.After(0, func() {}) // opens the first window's barrier at 0: only control events before 50ms run there
		e.Post(nil, l, Epoch.Add(30*time.Millisecond), mark)
		e.Post(nil, l, Epoch.Add(70*time.Millisecond), mark)
		e.After(60*time.Millisecond, func() { e.Post(nil, l, e.Now(), mark) })
		e.RunFor(time.Second)
		if fmt.Sprint(got) != "[30ms 60ms 70ms]" {
			t.Errorf("%d shards: lane ran at %v, want [30ms 60ms 70ms]", len(e.shards), got)
		}
	}
}

// TestShardedNowPanicsInPhase pins the other guard, at every shard
// count: node-lane events must use their callback time, not engine
// Now().
func TestShardedNowPanicsInPhase(t *testing.T) {
	for _, e := range []*Engine{New(1), sharded(t, 1, 2, 50*time.Millisecond)} {
		l := e.AddLane()
		e.Post(nil, l, Epoch.Add(time.Millisecond), func(time.Time) { e.Now() })
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d shards: Now() inside a window did not panic", len(e.shards))
				}
			}()
			e.RunFor(time.Second)
		}()
	}
}

// TestShardedQuiescentPastPostClamped: a node-lane post into the past
// made between Run calls fires at the resting clock, not at the shard's
// stale local time.
func TestShardedQuiescentPastPostClamped(t *testing.T) {
	for _, eng := range []*Engine{New(1), sharded(t, 1, 2, 50*time.Millisecond)} {
		l := eng.AddLane()
		eng.RunFor(time.Hour) // the lane never executes; its local clock is stale
		var at time.Duration
		eng.Post(l, l, Epoch, func(now time.Time) { at = now.Sub(Epoch) })
		eng.RunFor(time.Second)
		if at != time.Hour {
			t.Errorf("%d shards: past-time quiescent post fired at %v, want 1h", len(eng.shards), at)
		}
	}
}

// TestShardedControlPanicStopsWorkers pins the teardown path: a panic
// inside a control-lane event must unwind RunFor without leaking
// parked shard workers.
func TestShardedControlPanicStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		e := sharded(t, 1, 3, 50*time.Millisecond)
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
	noWorkersLeft(t, before)
}

// TestShardedConfigValidation covers constructor errors.
func TestShardedConfigValidation(t *testing.T) {
	if _, err := NewSharded(1, 0, time.Millisecond); err == nil {
		t.Error("shard count 0 accepted")
	}
	if _, err := NewSharded(1, 2, 0); err == nil {
		t.Error("two shards accepted a zero lookahead")
	}
	if _, err := NewSharded(1, 1, -time.Millisecond); err == nil {
		t.Error("negative lookahead accepted")
	}
	if _, err := NewSharded(1, 1, 0); err != nil {
		t.Errorf("one shard needs no lookahead: %v", err)
	}
}

// TestShardedClockSemantics pins RunUntil's clock behavior: the clock
// lands on the deadline even when the queue drains early, and quiescent
// After scheduling uses the resting clock.
func TestShardedClockSemantics(t *testing.T) {
	e := sharded(t, 1, 2, 50*time.Millisecond)
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
