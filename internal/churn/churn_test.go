package churn

import (
	"testing"
	"time"

	"avmon/internal/sim"
)

// recorder is a Driver that tracks node liveness for assertions.
type recorder struct {
	alive   map[int]bool
	dead    map[int]bool
	births  int
	rejoins int
	leaves  int
	deaths  int
}

func newRecorder() *recorder {
	return &recorder{alive: make(map[int]bool), dead: make(map[int]bool)}
}

func (r *recorder) Birth(idx int) {
	if r.alive[idx] {
		panic("birth of already-alive node")
	}
	if r.dead[idx] {
		panic("birth of dead node")
	}
	r.alive[idx] = true
	r.births++
}

func (r *recorder) Rejoin(idx int) {
	if r.alive[idx] {
		panic("rejoin of alive node")
	}
	if r.dead[idx] {
		panic("rejoin of dead node")
	}
	r.alive[idx] = true
	r.rejoins++
}

func (r *recorder) Leave(idx int) {
	if !r.alive[idx] {
		panic("leave of non-alive node")
	}
	delete(r.alive, idx)
	r.leaves++
}

func (r *recorder) Death(idx int) {
	delete(r.alive, idx)
	r.dead[idx] = true
	r.deaths++
}

func TestSTATStaysStatic(t *testing.T) {
	eng := sim.New(1)
	rec := newRecorder()
	m := NewSTAT(200)
	if m.Name() != "STAT" || m.StableN() != 200 {
		t.Fatalf("Name/StableN = %q/%d", m.Name(), m.StableN())
	}
	m.Install(eng, rec)
	eng.RunFor(24 * time.Hour)
	if rec.births != 200 {
		t.Errorf("births = %d, want 200", rec.births)
	}
	if rec.leaves != 0 || rec.rejoins != 0 || rec.deaths != 0 {
		t.Errorf("STAT churned: leaves=%d rejoins=%d deaths=%d", rec.leaves, rec.rejoins, rec.deaths)
	}
	if len(rec.alive) != 200 {
		t.Errorf("alive = %d, want 200", len(rec.alive))
	}
}

func TestSTATJoinsStaggered(t *testing.T) {
	eng := sim.New(2)
	rec := newRecorder()
	NewSTAT(50).Install(eng, rec)
	eng.RunFor(30 * time.Second)
	early := rec.births
	eng.RunFor(time.Minute)
	if early == 0 || early == 50 {
		t.Errorf("joins not staggered: %d of 50 within 30s", early)
	}
	if rec.births != 50 {
		t.Errorf("births after 90s = %d, want 50", rec.births)
	}
}

func TestSYNTHChurnRate(t *testing.T) {
	eng := sim.New(3)
	rec := newRecorder()
	m, err := NewSYNTH(SynthConfig{N: 500, ChurnPerHour: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "SYNTH" {
		t.Errorf("Name = %q", m.Name())
	}
	m.Install(eng, rec)
	eng.RunFor(10 * time.Hour)
	// ~0.2 * alive ≈ 0.2 * 450 leaves per hour over 10h; wide tolerance.
	perHour := float64(rec.leaves) / 10
	if perHour < 0.1*500 || perHour > 0.3*500 {
		t.Errorf("leave rate = %.1f/hour, want ≈ %d/hour", perHour, 500/5)
	}
	// Rejoins roughly balance leaves in steady state (λr = λl).
	if rec.rejoins == 0 {
		t.Error("no rejoins")
	}
	ratio := float64(rec.rejoins) / float64(rec.leaves)
	if ratio < 0.7 || ratio > 1.1 {
		t.Errorf("rejoin/leave ratio = %.2f, want ≈ 1", ratio)
	}
	if rec.deaths != 0 || rec.births != 500 {
		t.Errorf("SYNTH produced deaths=%d births=%d", rec.deaths, rec.births)
	}
}

func TestSYNTHStableSize(t *testing.T) {
	eng := sim.New(4)
	rec := newRecorder()
	m, err := NewSYNTH(SynthConfig{N: 400, ChurnPerHour: 0.2, MeanDowntime: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	m.Install(eng, rec)
	// Expected availability = 300/(300+30) ≈ 0.91; alive count must
	// stay within a constant factor of N throughout.
	for hour := 1; hour <= 12; hour++ {
		eng.RunFor(time.Hour)
		alive := len(rec.alive)
		if alive < 300 || alive > 400 {
			t.Fatalf("hour %d: alive = %d, drifted outside [300, 400]", hour, alive)
		}
	}
}

func TestSYNTHBDBirthsAndDeaths(t *testing.T) {
	eng := sim.New(5)
	rec := newRecorder()
	m, err := NewSYNTHBD(SynthConfig{N: 500, ChurnPerHour: 0.2, BirthDeathPerDay: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "SYNTH-BD" {
		t.Errorf("Name = %q", m.Name())
	}
	m.Install(eng, rec)
	eng.RunFor(48 * time.Hour)
	// 0.2N/day * 2 days = 200 expected births and deaths.
	if rec.births < 500+120 || rec.births > 500+300 {
		t.Errorf("births = %d, want ≈ 700", rec.births)
	}
	if rec.deaths < 120 || rec.deaths > 300 {
		t.Errorf("deaths = %d, want ≈ 200", rec.deaths)
	}
	// Stable size maintained.
	alive := len(rec.alive)
	if alive < 350 || alive > 650 {
		t.Errorf("alive after 48h = %d, want within a constant factor of 500", alive)
	}
	// Dead nodes never reappear (checked by recorder panics), and
	// Nlongterm, every node ever created, grows as the paper describes.
	if born := len(m.(*synthModel).states); born != rec.births {
		t.Errorf("%d nodes created, births = %d", born, rec.births)
	}
}

func TestSYNTHBD2DoublesRates(t *testing.T) {
	m, err := NewSYNTHBD(SynthConfig{N: 100, ChurnPerHour: 0.2, BirthDeathPerDay: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "SYNTH-BD2" {
		t.Errorf("Name = %q, want SYNTH-BD2", m.Name())
	}
	eng := sim.New(6)
	rec := newRecorder()
	m.Install(eng, rec)
	eng.RunFor(48 * time.Hour)
	// 0.4N/day * 2 days = 80 expected births.
	extra := rec.births - 100
	if extra < 40 || extra > 130 {
		t.Errorf("SYNTH-BD2 extra births = %d, want ≈ 80", extra)
	}
}

func TestEnrollControlGroup(t *testing.T) {
	eng := sim.New(7)
	rec := newRecorder()
	m, err := NewSYNTH(SynthConfig{N: 100, ChurnPerHour: 0.5, MeanDowntime: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	m.Install(eng, rec)
	eng.RunFor(time.Hour)
	before := rec.births
	var ctl []int
	for i := 0; i < 10; i++ {
		ctl = append(ctl, m.Enroll())
	}
	if rec.births != before+10 {
		t.Errorf("births after Enroll = %d, want %d", rec.births, before+10)
	}
	for _, idx := range ctl {
		if !rec.alive[idx] {
			t.Errorf("control node %d not alive after Enroll", idx)
		}
	}
	// Control nodes churn like everyone else: over several mean
	// sessions at least one of them must have left.
	eng.RunFor(8 * time.Hour)
	left := false
	for _, idx := range ctl {
		if !rec.alive[idx] {
			left = true
		}
	}
	// They may also have rejoined; check leave counter moved well past
	// the base population's expectation is fiddly, so just require the
	// model kept running.
	if !left && rec.leaves == 0 {
		t.Error("no churn at all after Enroll")
	}
}

func TestSynthConfigValidation(t *testing.T) {
	if _, err := NewSYNTH(SynthConfig{N: 0, ChurnPerHour: 0.2}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := NewSYNTH(SynthConfig{N: 10, ChurnPerHour: 0}); err == nil {
		t.Error("ChurnPerHour=0 accepted")
	}
	if _, err := NewSYNTHBD(SynthConfig{N: -5, ChurnPerHour: 0.2}); err == nil {
		t.Error("negative N accepted")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int, int, int, int) {
		eng := sim.New(99)
		rec := newRecorder()
		m, err := NewSYNTHBD(SynthConfig{N: 200, ChurnPerHour: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		m.Install(eng, rec)
		eng.RunFor(6 * time.Hour)
		return rec.births, rec.leaves, rec.rejoins, rec.deaths
	}
	b1, l1, r1, d1 := run()
	b2, l2, r2, d2 := run()
	if b1 != b2 || l1 != l2 || r1 != r2 || d1 != d2 {
		t.Errorf("non-deterministic: (%d,%d,%d,%d) vs (%d,%d,%d,%d)", b1, l1, r1, d1, b2, l2, r2, d2)
	}
}

func TestMixedModelClasses(t *testing.T) {
	m, err := NewMixed(MixedConfig{NStable: 50, NFlaky: 50})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "MIXED" || m.StableN() != 100 {
		t.Errorf("Name/StableN = %q/%d", m.Name(), m.StableN())
	}
	eng := sim.New(21)
	rec := newRecorder()
	m.Install(eng, rec)
	eng.RunFor(12 * time.Hour)
	// Stable nodes (indexes < 50) should be up nearly always; flaky
	// nodes (≥ 50) should be down often (33% availability).
	stableUp, flakyUp := 0, 0
	for idx := range rec.alive {
		if idx < 50 {
			stableUp++
		} else {
			flakyUp++
		}
	}
	if stableUp < 45 {
		t.Errorf("only %d of 50 stable nodes up", stableUp)
	}
	if flakyUp > 35 {
		t.Errorf("%d of 50 flaky nodes up, want roughly a third", flakyUp)
	}
	if flakyUp == 0 {
		t.Error("no flaky nodes up at all")
	}
}

func TestMixedModelValidation(t *testing.T) {
	if _, err := NewMixed(MixedConfig{NStable: 0, NFlaky: 10}); err == nil {
		t.Error("empty stable class accepted")
	}
	if _, err := NewMixed(MixedConfig{NStable: 10, NFlaky: 0}); err == nil {
		t.Error("empty flaky class accepted")
	}
}
