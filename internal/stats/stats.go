// Package stats provides the small statistics toolkit used to produce
// every figure in the paper's evaluation: empirical CDFs and streaming
// mean/stddev.
package stats

import (
	"math"
	"sort"
)

// Welford accumulates a streaming mean and variance using Welford's
// algorithm. The zero value is an empty accumulator.
type Welford struct {
	n    int
	mean float64
	m2   float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 || x > w.max {
		w.max = x
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the sample variance (0 if fewer than 2 observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Var()) }

// Max returns the largest observation (0 if empty).
func (w *Welford) Max() float64 { return w.max }

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends an observation.
func (c *CDF) Add(x float64) {
	c.samples = append(c.samples, x)
	c.sorted = false
}

// AddAll appends many observations.
func (c *CDF) AddAll(xs []float64) {
	c.samples = append(c.samples, xs...)
	c.sorted = false
}

// N returns the number of observations.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// FractionBelow returns the fraction of samples ≤ x (the empirical
// CDF evaluated at x). An empty CDF yields 0.
func (c *CDF) FractionBelow(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	i := sort.SearchFloat64s(c.samples, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.samples))
}

// Percentile returns the p-th percentile (p in [0, 100]) using
// nearest-rank. An empty CDF yields 0.
func (c *CDF) Percentile(p float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	if p <= 0 {
		return c.samples[0]
	}
	if p >= 100 {
		return c.samples[len(c.samples)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(c.samples))))
	if rank < 1 {
		rank = 1
	}
	return c.samples[rank-1]
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range c.samples {
		sum += v
	}
	return sum / float64(len(c.samples))
}

// Max returns the largest sample (0 if empty).
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	return c.samples[len(c.samples)-1]
}

// Points returns up to n evenly spaced (x, fraction≤x) points suitable
// for plotting the CDF curve.
func (c *CDF) Points(n int) []Point {
	if len(c.samples) == 0 || n <= 0 {
		return nil
	}
	c.ensureSorted()
	lo, hi := c.samples[0], c.samples[len(c.samples)-1]
	if n == 1 || lo == hi {
		return []Point{{hi, 1}}
	}
	out := make([]Point, 0, n)
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		out = append(out, Point{x, c.FractionBelow(x)})
	}
	return out
}

// Point is one (x, y) plot point.
type Point struct {
	X, Y float64
}
