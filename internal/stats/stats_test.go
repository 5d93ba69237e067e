package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d, want 8", w.N())
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if got := w.Stddev(); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("Stddev = %v, want %v", got, math.Sqrt(32.0/7))
	}
	if w.Max() != 9 {
		t.Errorf("Max = %v, want 9", w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.N() != 0 {
		t.Error("empty accumulator not zero")
	}
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Var() != 0 {
		t.Errorf("single-sample Mean/Var = %v/%v", w.Mean(), w.Var())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			w.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naive := ss / float64(n-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Var()-naive) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFFractionBelow(t *testing.T) {
	var c CDF
	c.AddAll([]float64{1, 2, 3, 4, 5})
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.2}, {2.5, 0.4}, {5, 1}, {10, 1},
	}
	for _, tt := range tests {
		if got := c.FractionBelow(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("FractionBelow(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestCDFPercentile(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {1, 1}, {50, 50}, {93, 93}, {100, 100}, {150, 100}, {-5, 1},
	}
	for _, tt := range tests {
		if got := c.Percentile(tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.FractionBelow(5) != 0 || c.Percentile(50) != 0 || c.Mean() != 0 || c.Max() != 0 {
		t.Error("empty CDF not all-zero")
	}
	if c.Points(5) != nil {
		t.Error("empty CDF produced points")
	}
}

func TestCDFInterleavedAddAndQuery(t *testing.T) {
	var c CDF
	c.Add(10)
	if got := c.FractionBelow(10); got != 1 {
		t.Errorf("FractionBelow = %v, want 1", got)
	}
	c.Add(20) // must re-sort on next query
	if got := c.FractionBelow(10); got != 0.5 {
		t.Errorf("after second Add, FractionBelow(10) = %v, want 0.5", got)
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	var c CDF
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		c.Add(rng.Float64() * 42)
	}
	pts := c.Points(20)
	if len(pts) != 20 {
		t.Fatalf("got %d points, want 20", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatalf("points not monotone at %d: %+v then %+v", i, pts[i-1], pts[i])
		}
	}
	if last := pts[len(pts)-1].Y; last != 1 {
		t.Errorf("final CDF point y = %v, want 1", last)
	}
}

func TestCDFPointsDegenerate(t *testing.T) {
	var c CDF
	c.Add(7)
	c.Add(7)
	pts := c.Points(10)
	if len(pts) != 1 || pts[0].X != 7 || pts[0].Y != 1 {
		t.Errorf("degenerate Points = %+v", pts)
	}
}
