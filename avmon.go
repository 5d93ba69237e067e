package avmon

import (
	"errors"
	"fmt"
	"time"

	"avmon/internal/core"
	"avmon/internal/hashing"
	"avmon/internal/ids"
)

// ID identifies a node by its <IP address, port> pair, the unit over
// which the consistency condition is evaluated (paper Section 3.1).
type ID = ids.ID

// ParseID converts "a.b.c.d:port" into an ID.
func ParseID(addr string) (ID, error) { return ids.Parse(addr) }

// SimID returns the identity of simulated node i.
func SimID(i int) ID { return ids.Sim(i) }

// Variant selects one of the coarse-view sizing policies of Section
// 4.2 (Table 1).
type Variant = hashing.Variant

// Coarse-view sizing variants.
const (
	// VariantGeneric uses cvs = log2(N).
	VariantGeneric = hashing.VariantGeneric
	// VariantMD minimizes memory/bandwidth and discovery time.
	VariantMD = hashing.VariantMD
	// VariantMDC minimizes memory/bandwidth, discovery time, and
	// computation; the paper's recommended default.
	VariantMDC = hashing.VariantMDC
	// VariantDC minimizes discovery time and computation.
	VariantDC = hashing.VariantDC
)

// HashName selects the hash behind the consistency condition.
type HashName string

// Supported hashes. MD5 is the paper's default; Fast is a
// statistically equivalent non-cryptographic mixer recommended for
// large simulations.
const (
	HashMD5  HashName = "md5"
	HashSHA1 HashName = "sha1"
	HashFast HashName = "fast"
)

func (h HashName) hasher() hashing.Hasher {
	switch h {
	case HashMD5:
		return hashing.MD5Hasher{}
	case HashSHA1:
		return hashing.SHA1Hasher{}
	default:
		return hashing.FastHasher{}
	}
}

// SelectionScheme is the consistent, verifiable monitor-selection
// relation; Related(y, x) reports whether y monitors x. The discovery
// protocol accepts any implementation (Section 3.2).
type SelectionScheme = core.SelectionScheme

// NewSelector builds the paper's hash-based selection scheme with
// pinging-set parameter k and expected system size n.
func NewSelector(hash HashName, k, n int) (SelectionScheme, error) {
	return hashing.NewSelector(hash.hasher(), k, n)
}

// DefaultK returns the paper's default pinging-set parameter
// K = log2(N).
func DefaultK(n int) int { return hashing.DefaultK(n) }

// DefaultCVS returns the paper's experimental coarse-view size
// 4·N^(1/4) (4× Optimal-MDC, Section 5).
func DefaultCVS(n int) int { return hashing.DefaultCVS(n) }

// ExpectedDiscoveryTime returns the analytical bound on expected
// monitor-discovery time, in protocol periods (Section 4.1).
func ExpectedDiscoveryTime(cvs, n int) float64 {
	return hashing.ExpectedDiscoveryTime(cvs, n)
}

// VerifyReport checks monitors reported by (or on behalf of) subject
// against the scheme, enforcing the verifiability property: reported
// monitors that fail the consistency condition are rejected, so a
// selfish node cannot have colluders vouch for its availability.
func VerifyReport(scheme SelectionScheme, subject ID, reported []ID, minimum int) ([]ID, error) {
	return core.VerifyReport(scheme, subject, reported, minimum)
}

// NodeOptions carries the per-node protocol knobs shared by simulated
// clusters and real Services.
type NodeOptions struct {
	// K is the pinging-set parameter (0 = log2 N).
	K int
	// CVS is the coarse-view size (0 = variant default; if Variant is
	// also zero, 4·N^(1/4)).
	CVS int
	// Variant picks an optimal cvs policy when CVS is 0.
	Variant Variant
	// Period is the coarse-membership protocol period T (0 = 1 minute).
	Period time.Duration
	// MonitorPeriod is the monitoring period TA (0 = 1 minute).
	MonitorPeriod time.Duration
	// Hash picks the hash function (default Fast for clusters, MD5
	// for Services).
	Hash HashName
	// Forgetful enables forgetful pinging (Section 3.3).
	Forgetful bool
	// ForgetfulTau overrides τ (0 = 2 minutes).
	ForgetfulTau time.Duration
	// ForgetfulC overrides c (0 = 1).
	ForgetfulC float64
	// PR2 enables the indegree-repair optimization (Section 5.4).
	PR2 bool
	// DisableReshuffle and RejoinFullWeight are ablation knobs used by
	// the evaluation; they switch off parts of the published protocol.
	DisableReshuffle bool
	RejoinFullWeight bool
}

// ErrInvalidConfig is wrapped by every error with which
// ClusterConfig.Validate, ServiceConfig.Validate, NewCluster and
// NewService reject a configuration, before anything is started.
var ErrInvalidConfig = errors.New("avmon: invalid config")

func badConfig(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalidConfig}, args...)...)
}

// validate rejects option values no node can run under. Zero values
// keep meaning "default"; n is the system size, 0 while still unknown.
func (o NodeOptions) validate(n int) error {
	switch {
	case o.K < 0 || (n > 0 && o.K > n):
		return badConfig("K %d outside [0, N = %d] (0 = log2 N)", o.K, n)
	case o.CVS < 0 || o.CVS == 1:
		return badConfig("CVS %d: a coarse view holds at least 2 entries (0 = the variant's default)", o.CVS)
	case o.Variant < 0 || o.Variant > VariantDC:
		return badConfig("unknown Variant %d", o.Variant)
	case o.Period < 0 || o.MonitorPeriod < 0 || o.ForgetfulTau < 0:
		return badConfig("negative duration (Period %v, MonitorPeriod %v, ForgetfulTau %v; 0 = default)",
			o.Period, o.MonitorPeriod, o.ForgetfulTau)
	case !(o.ForgetfulC >= 0):
		return badConfig("ForgetfulC %v is not a non-negative factor (0 = 1)", o.ForgetfulC)
	}
	switch o.Hash {
	case "", HashMD5, HashSHA1, HashFast:
	default:
		return badConfig("unknown Hash %q (md5, sha1, fast)", o.Hash)
	}
	return nil
}

// coreConfig is the part of a node's core.Config that the options set
// alike for simulated and real nodes in a system of size n; the caller
// adds identity, scheme, transport and randomness, and a simulation
// worker its envelopes and sweep scratch.
func (o NodeOptions) coreConfig(n int) core.Config {
	return core.Config{
		CVS:              o.cvsFor(n),
		Period:           o.Period,
		MonitorPeriod:    o.MonitorPeriod,
		Forgetful:        o.Forgetful,
		ForgetfulTau:     o.ForgetfulTau,
		ForgetfulC:       o.ForgetfulC,
		PR2:              o.PR2,
		DisableReshuffle: o.DisableReshuffle,
		RejoinFullWeight: o.RejoinFullWeight,
	}
}

// memoized reports whether a one-shard simulated cluster puts a
// pair-verdict memo (hashing.MemoSelector) in front of the selector's
// single-pair checks: yes for the cryptographic hashes, where a hit
// costs a few nanoseconds against an MD5 or SHA-1 digest's ~150, no for
// the fast mixer, which is itself cheaper than a lookup. The sweep's
// rows bypass the memo. Memoization affects speed only, never verdicts.
func (o NodeOptions) memoized() bool {
	return o.Hash == HashMD5 || o.Hash == HashSHA1
}

// cvsFor resolves the effective coarse-view size for system size n.
func (o NodeOptions) cvsFor(n int) int {
	if o.CVS > 0 {
		return o.CVS
	}
	if o.Variant != 0 {
		return o.Variant.CVS(n)
	}
	return hashing.DefaultCVS(n)
}

// kFor resolves the effective K for system size n.
func (o NodeOptions) kFor(n int) int {
	if o.K > 0 {
		return o.K
	}
	return hashing.DefaultK(n)
}
