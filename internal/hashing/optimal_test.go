package hashing

import (
	"math"
	"testing"
)

func TestVariantString(t *testing.T) {
	tests := []struct {
		v    Variant
		want string
	}{
		{VariantGeneric, "generic-logN"},
		{VariantMD, "optimal-MD"},
		{VariantMDC, "optimal-MDC"},
		{VariantDC, "optimal-DC"},
		{Variant(99), "unknown-variant"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("Variant(%d).String() = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestClosedFormsMatchPaper(t *testing.T) {
	// Paper Section 4.2: for N = 1 Million, cvs_MDC = N^(1/4) ≈ 32.
	if got := VariantMDC.CVS(1_000_000); got < 31 || got > 32 {
		t.Errorf("MDC cvs for 1M nodes = %d, want ≈ 32", got)
	}
	// cvs_MD = (2N)^(1/3): for N=1M that's ~126.
	if got := VariantMD.CVS(1_000_000); got < 125 || got > 127 {
		t.Errorf("MD cvs for 1M nodes = %d, want ≈ 126", got)
	}
	// DC equals MDC (Optimality Analysis 3).
	for _, n := range []int{100, 2000, 1_000_000} {
		if VariantDC.CVS(n) != VariantMDC.CVS(n) {
			t.Errorf("DC and MDC disagree at N=%d", n)
		}
	}
	// Generic: log2(N). K default for N=1M is 20 per the paper.
	if got := DefaultK(1_000_000); got != 20 {
		t.Errorf("DefaultK(1M) = %d, want 20", got)
	}
}

// costMD is the Optimal-MD objective of § 4.2,
// f(cvs) = cvs + E[D](cvs).
func costMD(cvs, n int) float64 {
	return float64(cvs) + ExpectedDiscoveryTime(cvs, n)
}

// costMDC is the Optimal-MDC objective of § 4.2,
// g(cvs) = cvs + cvs² + E[D](cvs).
func costMDC(cvs, n int) float64 {
	return float64(cvs) + float64(cvs)*float64(cvs) + ExpectedDiscoveryTime(cvs, n)
}

// minimizeCost returns the argmin of cost over cvs ∈ [2, limit].
func minimizeCost(cost func(cvs, n int) float64, n, limit int) int {
	best, bestCost := 2, math.Inf(1)
	for c := 2; c <= limit; c++ {
		if v := cost(c, n); v < bestCost {
			best, bestCost = c, v
		}
	}
	return best
}

func TestNumericMinimizerConfirmsClosedForms(t *testing.T) {
	// The closed forms are stationary points of the cost functions;
	// confirm the numeric argmin lands close for several N.
	for _, n := range []int{500, 2000, 50000, 1_000_000} {
		md := minimizeCost(costMD, n, 4000)
		wantMD := cvsOptimalMD(n)
		if math.Abs(float64(md)-wantMD) > wantMD*0.25+2 {
			t.Errorf("N=%d: numeric MD argmin %d far from closed form %.1f", n, md, wantMD)
		}
		mdc := minimizeCost(costMDC, n, 4000)
		wantMDC := cvsOptimalMDC(n)
		if math.Abs(float64(mdc)-wantMDC) > wantMDC*0.35+2 {
			t.Errorf("N=%d: numeric MDC argmin %d far from closed form %.1f", n, mdc, wantMDC)
		}
	}
}

func TestExpectedDiscoveryTime(t *testing.T) {
	// E[D] ≈ N/cvs² when cvs = o(sqrt(N)); for N=1M, cvs=32 the paper
	// quotes 1000 time units.
	got := ExpectedDiscoveryTime(32, 1_000_000)
	if got < 900 || got > 1100 {
		t.Errorf("E[D] for N=1M, cvs=32 = %.1f, want ≈ 1000", got)
	}
	// Monotone decreasing in cvs.
	prev := math.Inf(1)
	for cvs := 2; cvs <= 64; cvs *= 2 {
		d := ExpectedDiscoveryTime(cvs, 10000)
		if d >= prev {
			t.Errorf("E[D] not decreasing at cvs=%d: %f >= %f", cvs, d, prev)
		}
		prev = d
	}
	// Degenerate inputs.
	if !math.IsInf(ExpectedDiscoveryTime(0, 100), 1) {
		t.Error("E[D] with cvs=0 should be +Inf")
	}
	if !math.IsInf(ExpectedDiscoveryTime(10, 0), 1) {
		t.Error("E[D] with n=0 should be +Inf")
	}
}

func TestDefaultCVSMatchesExperimentalSetting(t *testing.T) {
	// Section 5: cvs = 4·N^(1/4); for N=2000, K=11, cvs=27.
	if got := DefaultCVS(2000); got != 27 {
		t.Errorf("DefaultCVS(2000) = %d, want 27", got)
	}
	if got := DefaultK(2000); got != 11 {
		t.Errorf("DefaultK(2000) = %d, want 11", got)
	}
	// Section 5.3: PL has N=239 → K=8, cvs=16; OV has N=550 → K=9, cvs=19.
	if got := DefaultK(239); got != 8 {
		t.Errorf("DefaultK(239) = %d, want 8", got)
	}
	if got := DefaultCVS(239); got != 16 {
		t.Errorf("DefaultCVS(239) = %d, want 16", got)
	}
	if got := DefaultK(550); got != 9 {
		t.Errorf("DefaultK(550) = %d, want 9", got)
	}
	if got := DefaultCVS(550); got != 19 {
		t.Errorf("DefaultCVS(550) = %d, want 19", got)
	}
}

func TestKForLOutOfK(t *testing.T) {
	// K = (l+1)·log(N) grows with both l and N.
	if kForLOutOfK(1, 1000) <= kForLOutOfK(0, 1000) {
		t.Error("K not increasing in l")
	}
	if kForLOutOfK(1, 100000) <= kForLOutOfK(1, 100) {
		t.Error("K not increasing in N")
	}
	if got := kForLOutOfK(2, 1); got < 3 {
		t.Errorf("degenerate N: got %d, want ≥ l+1", got)
	}
}

func TestCVSFloors(t *testing.T) {
	for _, v := range []Variant{VariantGeneric, VariantMD, VariantMDC, VariantDC} {
		if got := v.CVS(1); got < 2 {
			t.Errorf("%v.CVS(1) = %d, want ≥ 2", v, got)
		}
	}
	if DefaultCVS(1) < 2 {
		t.Error("DefaultCVS(1) < 2")
	}
	if DefaultK(1) < 1 {
		t.Error("DefaultK(1) < 1")
	}
}
