package simnet

import (
	"math/rand"
	"testing"
	"time"

	"avmon/internal/ids"
	"avmon/internal/sim"
)

// drawMany pulls n draws from a model across several src/dst pairs and
// fails if any draw undercuts the declared floor (or overshoots max,
// when max > 0). This is THE property the sharded engine depends on:
// a single draw below MinLatency() would violate the lookahead window.
func drawMany(t *testing.T, m LatencyModel, n int, rng *rand.Rand, max time.Duration) {
	t.Helper()
	floor := m.MinLatency()
	if floor <= 0 {
		t.Fatalf("model %T declares non-positive floor %v", m, floor)
	}
	for i := 0; i < n; i++ {
		src, dst := ids.Sim(i%17), ids.Sim(i%23)
		d := m.Latency(src, dst, rng)
		if d < floor {
			t.Fatalf("%T draw %v below declared MinLatency %v (draw #%d)", m, d, floor, i)
		}
		if max > 0 && d > max {
			t.Fatalf("%T draw %v above cap %v (draw #%d)", m, d, max, i)
		}
	}
}

// TestLatencyModelsNeverBelowFloor is the floor property test over
// randomized parameters: every constructible model must respect its
// own declared MinLatency on every draw.
func TestLatencyModelsNeverBelowFloor(t *testing.T) {
	pr := rand.New(rand.NewSource(99)) // parameter randomness
	rng := rand.New(rand.NewSource(7)) // draw randomness (a lane stream stand-in)

	t.Run("constant", func(t *testing.T) {
		for trial := 0; trial < 50; trial++ {
			d := time.Duration(1+pr.Int63n(int64(500*time.Millisecond))) * 1
			m, err := NewConstantLatency(d)
			if err != nil {
				t.Fatal(err)
			}
			if m.MinLatency() != d {
				t.Fatalf("constant floor %v, want %v", m.MinLatency(), d)
			}
			drawMany(t, m, 100, rng, d)
		}
	})

	t.Run("lognormal", func(t *testing.T) {
		for trial := 0; trial < 50; trial++ {
			floor := time.Duration(1 + pr.Int63n(int64(50*time.Millisecond)))
			median := time.Duration(1 + pr.Int63n(int64(400*time.Millisecond)))
			sigma := 0.05 + 2*pr.Float64()
			var cap time.Duration
			if pr.Intn(2) == 0 {
				cap = floor + median + time.Duration(pr.Int63n(int64(2*time.Second)))
			}
			m, err := NewLognormalLatency(floor, median, sigma, cap)
			if err != nil {
				t.Fatal(err)
			}
			if m.MinLatency() != floor {
				t.Fatalf("lognormal floor %v, want %v", m.MinLatency(), floor)
			}
			drawMany(t, m, 2000, rng, cap)
		}
	})

	t.Run("zone", func(t *testing.T) {
		for trial := 0; trial < 50; trial++ {
			z := 1 + pr.Intn(5)
			base := make([][]time.Duration, z)
			min := time.Duration(1<<62 - 1)
			for i := range base {
				base[i] = make([]time.Duration, z)
				for j := range base[i] {
					base[i][j] = time.Duration(1 + pr.Int63n(int64(300*time.Millisecond)))
					if base[i][j] < min {
						min = base[i][j]
					}
				}
			}
			jitter := pr.Float64()
			m, err := NewZoneLatency(base, jitter)
			if err != nil {
				t.Fatal(err)
			}
			if m.MinLatency() != min {
				t.Fatalf("zone floor %v, want smallest entry %v", m.MinLatency(), min)
			}
			drawMany(t, m, 500, rng, 0)
		}
	})
}

// FuzzLognormalFloor fuzzes the lognormal parameter space: any
// parameter set the constructor accepts must yield draws at or above
// the declared floor (and under the cap when one is set).
func FuzzLognormalFloor(f *testing.F) {
	f.Add(int64(5e6), int64(50e6), 0.6, int64(2e9), int64(1))
	f.Add(int64(1), int64(1), 3.0, int64(0), int64(42))
	f.Add(int64(20e6), int64(500e6), 0.1, int64(600e6), int64(-9))
	f.Fuzz(func(t *testing.T, floorNs, medianNs int64, sigma float64, capNs, seed int64) {
		m, err := NewLognormalLatency(
			time.Duration(floorNs), time.Duration(medianNs), sigma, time.Duration(capNs))
		if err != nil {
			t.Skip() // invalid parameters are the constructor's to reject
		}
		rng := rand.New(rand.NewSource(seed))
		floor := m.MinLatency()
		for i := 0; i < 64; i++ {
			d := m.Latency(ids.Sim(1), ids.Sim(2), rng)
			if d < floor {
				t.Fatalf("draw %v below floor %v (floor=%d median=%d sigma=%v cap=%d)",
					d, floor, floorNs, medianNs, sigma, capNs)
			}
			if capNs > 0 && d > time.Duration(capNs) {
				t.Fatalf("draw %v above cap %v", d, time.Duration(capNs))
			}
		}
	})
}

// FuzzZoneFloor fuzzes zone-matrix construction from raw entries: an
// accepted matrix must report the smallest entry as its floor and
// never draw below it.
func FuzzZoneFloor(f *testing.F) {
	f.Add(int64(10e6), int64(80e6), int64(150e6), int64(30e6), 0.3, int64(3))
	f.Add(int64(1), int64(1), int64(1), int64(1), 0.0, int64(0))
	// Regression: absurd jitter once overflowed the int64 conversion
	// and drew a negative latency, below the floor.
	f.Add(int64(10e6), int64(10e6), int64(10e6), int64(10e6), 1e12, int64(1))
	f.Fuzz(func(t *testing.T, a, b, c, d int64, jitter float64, seed int64) {
		base := [][]time.Duration{
			{time.Duration(a), time.Duration(b)},
			{time.Duration(c), time.Duration(d)},
		}
		m, err := NewZoneLatency(base, jitter)
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		floor := m.MinLatency()
		for i := 0; i < 64; i++ {
			if got := m.Latency(ids.Sim(i), ids.Sim(i*7+1), rng); got < floor {
				t.Fatalf("draw %v below floor %v (matrix %v)", got, floor, base)
			}
		}
	})
}

// TestLatencyModelValidation covers constructor rejections.
func TestLatencyModelValidation(t *testing.T) {
	if _, err := NewConstantLatency(0); err == nil {
		t.Error("zero constant latency accepted")
	}
	if _, err := NewLognormalLatency(0, time.Millisecond, 1, 0); err == nil {
		t.Error("zero lognormal floor accepted")
	}
	if _, err := NewLognormalLatency(time.Millisecond, 0, 1, 0); err == nil {
		t.Error("zero lognormal median accepted")
	}
	if _, err := NewLognormalLatency(time.Millisecond, time.Millisecond, 0, 0); err == nil {
		t.Error("zero lognormal sigma accepted")
	}
	if _, err := NewLognormalLatency(time.Millisecond, 10*time.Millisecond, 1, 5*time.Millisecond); err == nil {
		t.Error("lognormal cap below floor+median accepted")
	}
	if _, err := NewZoneLatency(nil, 0); err == nil {
		t.Error("empty zone matrix accepted")
	}
	if _, err := NewZoneLatency([][]time.Duration{{time.Millisecond, time.Millisecond}}, 0); err == nil {
		t.Error("non-square zone matrix accepted")
	}
	if _, err := NewZoneLatency([][]time.Duration{{0}}, 0); err == nil {
		t.Error("non-positive zone entry accepted")
	}
	if _, err := NewZoneLatency([][]time.Duration{{time.Millisecond}}, -1); err == nil {
		t.Error("negative jitter accepted")
	}
	if _, err := NewBernoulliLoss(1.0); err == nil {
		t.Error("loss probability 1.0 accepted")
	}
	if _, err := NewBernoulliLoss(-0.1); err == nil {
		t.Error("negative loss probability accepted")
	}
	if _, err := NewGilbertElliottLoss(0, 0.5, 0, 0.5); err == nil {
		t.Error("zero enterBad accepted")
	}
	if _, err := NewGilbertElliottLoss(0.1, 0, 0, 0.5); err == nil {
		t.Error("zero exitBad accepted")
	}
	if _, err := NewGilbertElliottLoss(0.1, 0.5, 0.6, 0.5); err == nil {
		t.Error("lossBad < lossGood accepted")
	}
	if _, err := NewGilbertElliottLoss(0.1, 0.5, -0.1, 0.5); err == nil {
		t.Error("negative lossGood accepted")
	}
}

// TestZoneAssignmentDeterministic pins the zone mapping: simulated
// index mod zone count, independent of any scheduler or RNG state, so
// a node's zone is identical across runs and engines.
func TestZoneAssignmentDeterministic(t *testing.T) {
	base := [][]time.Duration{
		{10 * time.Millisecond, 80 * time.Millisecond},
		{90 * time.Millisecond, 20 * time.Millisecond},
	}
	m, err := NewZoneLatency(base, 0) // no jitter: draws are the base entries
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := base[i%2][j%2]
			if got := m.Latency(ids.Sim(i), ids.Sim(j), rng); got != want {
				t.Fatalf("latency(%d→%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestGilbertElliottBurstiness checks the chain actually produces
// correlated loss: with a lossless good state and a lossy bad state,
// drops must cluster into runs, and the long-run loss rate must track
// the stationary formula.
func TestGilbertElliottBurstiness(t *testing.T) {
	const enterBad, exitBad, lossBad = 0.02, 0.25, 1.0
	m, err := NewGilbertElliottLoss(enterBad, exitBad, 0, lossBad)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var st LossState
	const total = 200_000
	drops, bursts := 0, 0
	inBurst := false
	for i := 0; i < total; i++ {
		if m.Drop(&st, rng) {
			drops++
			if !inBurst {
				bursts++
				inBurst = true
			}
		} else {
			inBurst = false
		}
	}
	stationary := enterBad * lossBad / (enterBad + exitBad)
	rate := float64(drops) / total
	if rate < stationary*0.8 || rate > stationary*1.2 {
		t.Errorf("loss rate %.4f, want ≈ stationary %.4f", rate, stationary)
	}
	// Mean burst length must reflect the bad-state dwell time (≈
	// 1/exitBad = 4 messages), not independence (≈ 1/(1-rate) ≈ 1.1).
	meanBurst := float64(drops) / float64(bursts)
	if meanBurst < 2 {
		t.Errorf("mean burst length %.2f; drops look independent, not bursty", meanBurst)
	}
}

// TestShardedNetworkRejectsLowFloor is the constructor half of the
// adaptive-lookahead contract: pairing a sharded engine with a latency
// model whose floor is below the engine's lookahead must fail at
// network construction, before any event can violate the window.
func TestShardedNetworkRejectsLowFloor(t *testing.T) {
	eng, err := sim.NewSharded(1, 2, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	low, err := NewConstantLatency(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, WithLatencyModel(low)); err == nil {
		t.Error("latency floor below the engine lookahead accepted")
	}
	// A model meeting the floor is accepted.
	ok, err := NewLognormalLatency(50*time.Millisecond, 20*time.Millisecond, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, WithLatencyModel(ok)); err != nil {
		t.Errorf("matching floor rejected: %v", err)
	}
	// One shard from sim.New has no lookahead to violate.
	if _, err := New(sim.New(1), WithLatencyModel(low)); err != nil {
		t.Errorf("one-shard engine rejected a low-floor model: %v", err)
	}
}

// TestNetworkHeterogeneousDelivery drives messages through the
// lognormal and zone models on a live engine: deliveries happen, and
// every delivery timestamp respects the model floor.
func TestNetworkHeterogeneousDelivery(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (LatencyModel, error)
	}{
		{"lognormal", func() (LatencyModel, error) {
			return NewLognormalLatency(5*time.Millisecond, 40*time.Millisecond, 0.8, time.Second)
		}},
		{"zones", func() (LatencyModel, error) {
			return NewZoneLatency([][]time.Duration{
				{10 * time.Millisecond, 120 * time.Millisecond},
				{130 * time.Millisecond, 15 * time.Millisecond},
			}, 0.2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.New(3)
			_, a, b, got := newPair(t, eng, WithLatencyModel(model))
			sendAt := eng.Now()
			const total = 200
			for i := 0; i < total; i++ {
				a.Send(b.ID(), i, 1)
			}
			eng.Run()
			if len(*got) != total {
				t.Fatalf("delivered %d of %d", len(*got), total)
			}
			for _, r := range *got {
				if lat := r.at - sendAt.Sub(sim.Epoch); lat < model.MinLatency() {
					t.Fatalf("delivery after %v, below the %v floor", lat, model.MinLatency())
				}
			}
		})
	}
}
