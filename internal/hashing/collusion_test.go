package hashing

import (
	"math"
	"testing"

	"avmon/internal/ids"
)

// kForLOutOfK returns the K needed to support an "l out of K"
// reporting policy with high probability: K = (l+1)·log(N)
// (Section 4.3).
func kForLOutOfK(l, n int) int {
	if n < 2 {
		return l + 1
	}
	k := int(math.Ceil(float64(l+1) * math.Log(float64(n))))
	if k < 1 {
		k = 1
	}
	return k
}

// TestCollusionPollutionProbability validates the Section 4.3
// analysis: with C colluders per node and K = log2(N), the probability
// that at least one colluder lands in PS(x) is ≈ 1 − (1 − K/N)^C.
func TestCollusionPollutionProbability(t *testing.T) {
	const (
		n = 2000
		c = 20 // colluders per node
	)
	k := DefaultK(n)
	sel, err := NewSelector(FastHasher{}, k, n)
	if err != nil {
		t.Fatal(err)
	}
	polluted := 0
	const victims = 1500
	for v := 0; v < victims; v++ {
		x := ids.Sim(v)
		// The colluders are c arbitrary distinct other nodes; use a
		// disjoint index range so they are deterministic.
		for ci := 0; ci < c; ci++ {
			colluder := ids.Sim(100000 + v*c + ci)
			if sel.Related(colluder, x) {
				polluted++
				break
			}
		}
	}
	got := float64(polluted) / victims
	want := 1 - math.Pow(1-float64(k)/n, c)
	sigma := math.Sqrt(want * (1 - want) / victims)
	if math.Abs(got-want) > 5*sigma {
		t.Errorf("pollution probability = %.4f, analysis predicts %.4f", got, want)
	}
}

// TestCollusionCoverageVsFraction is the quantitative version of the
// Section 4.3 analysis, swept over the colluder fraction, two K/N
// sizing rules, and two hash functions. Colluders are the top f·N
// indexes (the convention ClusterConfig.Collusion uses). For
// every honest victim x three statistics must track the analytic
// prediction within 5σ of the corresponding binomial:
//
//   - honest coverage: P(≥1 honest monitor in PS(x)) = 1−(1−K/N)^(N−C−1)
//   - pollution:       P(≥1 colluder in PS(x))       = 1−(1−K/N)^C
//   - infiltration:    E[colluders in PS(x)]          = C·K/N
//
// The relation is a pure hash, so each run is deterministic — the 5σ
// bound is a property of the hash behaving uniformly, not a flaky
// statistical test.
func TestCollusionCoverageVsFraction(t *testing.T) {
	fractions := []float64{0.05, 0.10, 0.20, 0.30}
	settings := []struct {
		name string
		n, k int
	}{
		{"N=500-defaultK", 500, DefaultK(500)},
		{"N=2000-defaultK", 2000, DefaultK(2000)},
		{"N=1200-K2of", 1200, kForLOutOfK(2, 1200)},
	}
	hashers := []struct {
		name string
		h    Hasher
	}{
		{"fast", FastHasher{}},
		{"md5", MD5Hasher{}},
	}
	for _, hs := range hashers {
		for _, set := range settings {
			set := set
			hs := hs
			t.Run(hs.name+"/"+set.name, func(t *testing.T) {
				sel, err := NewSelector(hs.h, set.k, set.n)
				if err != nil {
					t.Fatal(err)
				}
				// Precompute each node's monitor set once; the fraction
				// sweep only moves the colluder threshold index.
				monitors := make([][]int, set.n)
				for x := 0; x < set.n; x++ {
					id := ids.Sim(x)
					for y := 0; y < set.n; y++ {
						if y != x && sel.Related(ids.Sim(y), id) {
							monitors[x] = append(monitors[x], y)
						}
					}
				}
				p := float64(set.k) / float64(set.n)
				for _, f := range fractions {
					colluders := int(f*float64(set.n) + 0.5)
					from := set.n - colluders
					victims := from
					covered, polluted := 0, 0
					var infiltration float64
					for x := 0; x < from; x++ {
						hasHonest := false
						coll := 0
						for _, y := range monitors[x] {
							if y >= from {
								coll++
							} else {
								hasHonest = true
							}
						}
						if hasHonest {
							covered++
						}
						if coll > 0 {
							polluted++
						}
						infiltration += float64(coll)
					}
					check := func(metric string, got, want, sigma float64) {
						if math.Abs(got-want) > 5*sigma {
							t.Errorf("f=%.2f %s = %.5f, analysis predicts %.5f (5σ = %.5f)",
								f, metric, got, want, 5*sigma)
						}
					}
					wantCov := 1 - math.Pow(1-p, float64(set.n-colluders-1))
					check("honest coverage", float64(covered)/float64(victims), wantCov,
						math.Sqrt(wantCov*(1-wantCov)/float64(victims)))
					wantPol := 1 - math.Pow(1-p, float64(colluders))
					check("pollution", float64(polluted)/float64(victims), wantPol,
						math.Sqrt(wantPol*(1-wantPol)/float64(victims)))
					wantInf := float64(colluders) * p
					check("infiltration", infiltration/float64(victims), wantInf,
						math.Sqrt(float64(colluders)*p*(1-p)/float64(victims)))
				}
			})
		}
	}
}

// TestMinPSSizeWithLOutOfK validates the Section 4.3 sizing rule: with
// K = (l+1)·log(N), w.h.p. no node has fewer than l monitors in a
// population of size N.
func TestMinPSSizeWithLOutOfK(t *testing.T) {
	const (
		n = 1200
		l = 2
	)
	k := kForLOutOfK(l, n)
	sel, err := NewSelector(FastHasher{}, k, n)
	if err != nil {
		t.Fatal(err)
	}
	pop := make([]ids.ID, n)
	for i := range pop {
		pop[i] = ids.Sim(i)
	}
	short := 0
	for _, x := range pop {
		count := 0
		for _, y := range pop {
			if sel.Related(y, x) {
				count++
			}
		}
		if count < l {
			short++
		}
	}
	// The analysis gives O(1/N) probability of ANY node being short;
	// allow a tiny handful to absorb hash-specific variance.
	if short > 2 {
		t.Errorf("%d of %d nodes have fewer than %d monitors with K=%d", short, n, l, k)
	}
}

// TestMaxPSSizeLogarithmic validates the balls-and-bins bound: with
// K = O(log N), the maximum PS size is O(log N) w.h.p.
func TestMaxPSSizeLogarithmic(t *testing.T) {
	const n = 1500
	k := DefaultK(n)
	sel, err := NewSelector(FastHasher{}, k, n)
	if err != nil {
		t.Fatal(err)
	}
	maxPS := 0
	for xi := 0; xi < n; xi++ {
		x := ids.Sim(xi)
		count := 0
		for yi := 0; yi < n; yi++ {
			if sel.Related(ids.Sim(yi), x) {
				count++
			}
		}
		if count > maxPS {
			maxPS = count
		}
	}
	// Raab-Steger: max ≈ K + O(sqrt(K log N)); 3K is a loose ceiling.
	if maxPS > 3*k {
		t.Errorf("max |PS| = %d with K = %d; exceeds the O(log N) bound", maxPS, k)
	}
	if maxPS < k {
		t.Errorf("max |PS| = %d below K = %d; selection suspiciously tight", maxPS, k)
	}
}
