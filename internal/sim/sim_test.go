package sim

import (
	"testing"
	"time"
)

func TestEventsFireInTimestampOrder(t *testing.T) {
	e := New(1)
	var order []int
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var order []int
	at := Epoch.Add(time.Minute)
	for i := 0; i < 10; i++ {
		i := i
		e.At(at, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New(1)
	var sawNow time.Time
	e.After(90*time.Second, func() { sawNow = e.Now() })
	e.RunFor(2 * time.Minute)
	want := Epoch.Add(90 * time.Second)
	if !sawNow.Equal(want) {
		t.Errorf("callback saw now = %v, want %v", sawNow, want)
	}
	if !e.Now().Equal(Epoch.Add(2 * time.Minute)) {
		t.Errorf("clock after RunFor = %v, want %v", e.Now(), Epoch.Add(2*time.Minute))
	}
	if e.Elapsed() != 2*time.Minute {
		t.Errorf("Elapsed = %v, want 2m", e.Elapsed())
	}
}

// TestRunLeavesClockAtLastEvent: Run has no deadline to rest the clock
// at, so it rests at the last event executed, on whichever lane.
func TestRunLeavesClockAtLastEvent(t *testing.T) {
	e := New(1)
	l := e.AddLane()
	e.After(time.Second, func() {})
	e.Post(nil, l, Epoch.Add(3*time.Second), func(time.Time) {})
	e.Run()
	if e.Elapsed() != 3*time.Second || e.Pending() != 0 {
		t.Errorf("after Run: Elapsed = %v, Pending = %d; want 3s, 0", e.Elapsed(), e.Pending())
	}
	e.After(time.Second, func() {})
	e.Run()
	if e.Elapsed() != 4*time.Second {
		t.Errorf("after a second Run: Elapsed = %v, want 4s", e.Elapsed())
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	e := New(1)
	fired := false
	e.After(time.Hour, func() { fired = true })
	e.RunFor(time.Minute)
	if fired {
		t.Error("future event fired early")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.RunFor(time.Hour)
	if !fired {
		t.Error("event never fired")
	}
}

func TestPastEventClampedToNow(t *testing.T) {
	e := New(1)
	e.RunFor(time.Minute) // advance the clock
	fired := false
	e.At(Epoch, func() { fired = true }) // in the past
	e.RunFor(time.Nanosecond)
	if !fired {
		t.Error("past-scheduled event did not fire immediately")
	}
}

func TestNegativeAfterClamped(t *testing.T) {
	e := New(1)
	fired := false
	e.After(-time.Hour, func() { fired = true })
	e.RunFor(0)
	if !fired {
		t.Error("negative-delay event did not fire at now")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New(1)
	var hits int
	var chain func()
	chain = func() {
		hits++
		if hits < 5 {
			e.After(time.Second, chain)
		}
	}
	e.After(time.Second, chain)
	e.Run()
	if hits != 5 {
		t.Errorf("chained events fired %d times, want 5", hits)
	}
	if e.Steps() != 5 {
		t.Errorf("Steps = %d, want 5", e.Steps())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := New(1)
	var times []time.Duration
	tk := e.NewTicker(time.Minute, 30*time.Second, func(now time.Time) {
		times = append(times, now.Sub(Epoch))
	})
	e.RunFor(5 * time.Minute)
	tk.Stop()
	e.RunFor(5 * time.Minute)
	want := []time.Duration{
		30 * time.Second, 90 * time.Second, 150 * time.Second,
		210 * time.Second, 270 * time.Second,
	}
	if len(times) != len(want) {
		t.Fatalf("ticker fired %d times (%v), want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("firing %d at %v, want %v", i, times[i], want[i])
		}
	}
	if !tk.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := New(1)
	count := 0
	var tk *Ticker
	tk = e.NewTicker(time.Second, 0, func(time.Time) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Errorf("ticker fired %d times after in-callback Stop, want 3", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := New(42)
		var out []int64
		for i := 0; i < 50; i++ {
			d := time.Duration(e.Rand().Intn(1000)) * time.Millisecond
			e.After(d, func() { out = append(out, e.Elapsed().Milliseconds()) })
		}
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
