package hashing

import "math"

// Variant identifies one of the AVMON coarse-view-size policies
// analyzed in Section 4.2 and summarized in Table 1 of the paper.
type Variant int

const (
	// VariantGeneric uses cvs = log2(N) (the "AVMON, cvs = log(N)" row
	// of Table 1).
	VariantGeneric Variant = iota + 1
	// VariantMD minimizes memory/bandwidth and discovery time:
	// cvs = (2N)^(1/3) (Optimality Analysis 1).
	VariantMD
	// VariantMDC minimizes memory/bandwidth, discovery time, and
	// computation: cvs ≈ N^(1/4) (Optimality Analysis 2).
	VariantMDC
	// VariantDC minimizes discovery time and computation:
	// cvs = N^(1/4), identical to MDC (Optimality Analysis 3).
	VariantDC
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantGeneric:
		return "generic-logN"
	case VariantMD:
		return "optimal-MD"
	case VariantMDC:
		return "optimal-MDC"
	case VariantDC:
		return "optimal-DC"
	default:
		return "unknown-variant"
	}
}

// CVS returns the coarse-view size this variant prescribes for system
// size n. Results are rounded to the nearest integer and floored at 2
// (a coarse view needs at least one peer besides the fetch target).
func (v Variant) CVS(n int) int {
	if n < 2 {
		return 2
	}
	var f float64
	switch v {
	case VariantMD:
		f = cvsOptimalMD(n)
	case VariantMDC, VariantDC:
		f = cvsOptimalMDC(n)
	default:
		f = math.Log2(float64(n))
	}
	c := int(math.Round(f))
	if c < 2 {
		c = 2
	}
	return c
}

// cvsOptimalMD is the closed-form minimizer of
// f(cvs) = cvs + N/cvs² (memory+bandwidth plus discovery time):
// cvs = (2N)^(1/3).
func cvsOptimalMD(n int) float64 { return math.Cbrt(2 * float64(n)) }

// cvsOptimalMDC is the closed-form (approximate) minimizer of
// g(cvs) = cvs + cvs² + N/cvs²: cvs ≈ N^(1/4).
func cvsOptimalMDC(n int) float64 { return math.Pow(float64(n), 0.25) }

// ExpectedDiscoveryTime returns the paper's upper bound on the expected
// number of protocol periods to discover an arbitrary related pair:
//
//	E[D] ≤ 1 / (1 − e^(−cvs²/N))        (Section 4.1)
//
// For cvs² ≪ N this is ≈ N/cvs².
func ExpectedDiscoveryTime(cvs, n int) float64 {
	if cvs <= 0 || n <= 0 {
		return math.Inf(1)
	}
	p := 1 - math.Exp(-float64(cvs)*float64(cvs)/float64(n))
	if p <= 0 {
		return math.Inf(1)
	}
	return 1 / p
}

// DefaultK returns the paper's default pinging-set parameter
// K = log2(N) (Section 5 experimental settings), floored at 1.
func DefaultK(n int) int {
	if n < 2 {
		return 1
	}
	k := int(math.Round(math.Log2(float64(n))))
	if k < 1 {
		k = 1
	}
	return k
}

// DefaultCVS returns the paper's experimental coarse-view size
// cvs = 4·N^(1/4) (Section 5: "a factor of 4 above cvsOptimal−MDC for
// performance reasons").
func DefaultCVS(n int) int {
	c := int(math.Round(4 * cvsOptimalMDC(n)))
	if c < 2 {
		c = 2
	}
	return c
}
