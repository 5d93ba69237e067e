package core

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"avmon/internal/ids"
)

// Defaults mirroring the paper's experimental settings (Section 5).
const (
	// DefaultPeriod is the coarse-membership protocol period T.
	DefaultPeriod = time.Minute
	// DefaultMonitorPeriod is the monitoring protocol period TA.
	DefaultMonitorPeriod = time.Minute
	// DefaultForgetfulTau is the unresponsiveness threshold τ of the
	// forgetful-pinging optimization.
	DefaultForgetfulTau = 2 * time.Minute
	// DefaultForgetfulC is the forgetful-pinging constant c.
	DefaultForgetfulC = 1.0
)

// ErrConfig reports an invalid node configuration.
var ErrConfig = errors.New("core: invalid config")

// Config parameterizes one AVMON node.
type Config struct {
	// ID is this node's identity. Required.
	ID ids.ID
	// Scheme is the consistent, verifiable monitor-selection relation.
	// Required.
	Scheme SelectionScheme
	// Transport sends protocol messages. Required.
	Transport Transport
	// Rand is the node's private random source. Required (inject a
	// seeded source for deterministic simulation).
	Rand Rand

	// CVS is the maximum coarse-view size cvs. Required, ≥ 2.
	CVS int
	// Period is the coarse-membership protocol period T (default 1m).
	Period time.Duration
	// MonitorPeriod is the monitoring period TA (default 1m). It may
	// differ from Period (Section 3.3).
	MonitorPeriod time.Duration

	// PR2 enables the indegree-repair optimization of Section 5.4.
	PR2 bool

	// Forgetful enables the forgetful-pinging optimization.
	Forgetful bool
	// ForgetfulTau is the threshold τ after which a target is pinged
	// only probabilistically (default 2m).
	ForgetfulTau time.Duration
	// ForgetfulC is the constant c in c·ts/(ts+t) (default 1).
	ForgetfulC float64

	// AcquireMessage, when non-nil, supplies outgoing message
	// envelopes — typically from a recycling pool owned by the thread
	// executing the node — instead of allocating one per send. Supplied
	// messages must be fully zeroed (Message.Reset); the node sets
	// every field it uses and relinquishes ownership on send. nil means
	// allocate.
	AcquireMessage func() *Message

	// Scratch holds the discovery sweep's buffers. It carries no
	// information between calls, so every node executing on one thread
	// may share it (a simulation worker's nodes do). nil means Init
	// allocates one.
	Scratch *SweepScratch

	// Ablation knobs (evaluation only — they disable parts of the
	// published protocol to measure their contribution):

	// DisableReshuffle keeps the coarse view fixed instead of
	// re-drawing it from CV(x) ∪ CV(w) ∪ {w} each round (ablates the
	// randomness-maintenance step of Figure 2).
	DisableReshuffle bool
	// RejoinFullWeight makes rejoining nodes use weight cvs instead
	// of min(cvs, downtime) (ablates the indegree-compensation rule
	// of Figure 1).
	RejoinFullWeight bool
}

// Rand is the node's private random stream: the three draws the
// protocol makes. *rand.Rand satisfies it, and so does any generator
// that reproduces math/rand's algorithms for these methods — a
// simulated node holds a 32-byte one (sim.CompactRNG) instead of a
// rand.Rand and its source.
type Rand interface {
	Intn(n int) int
	Float64() float64
	Shuffle(n int, swap func(i, j int))
}

// setDefaults fills in the defaults of the fields left zero; on a
// configuration that has them it writes nothing.
func (c *Config) setDefaults() {
	if c.Scratch == nil {
		c.Scratch = new(SweepScratch)
	}
	if c.Period <= 0 {
		c.Period = DefaultPeriod
	}
	if c.MonitorPeriod <= 0 {
		c.MonitorPeriod = DefaultMonitorPeriod
	}
	if c.ForgetfulTau <= 0 {
		c.ForgetfulTau = DefaultForgetfulTau
	}
	if c.ForgetfulC <= 0 {
		c.ForgetfulC = DefaultForgetfulC
	}
}

func (c *Config) validate() error {
	if c.ID.IsNone() {
		return fmt.Errorf("%w: missing ID", ErrConfig)
	}
	if c.Scheme == nil {
		return fmt.Errorf("%w: missing Scheme", ErrConfig)
	}
	if c.Transport == nil {
		return fmt.Errorf("%w: missing Transport", ErrConfig)
	}
	if r := reflect.ValueOf(c.Rand); !r.IsValid() || r.Kind() == reflect.Pointer && r.IsNil() {
		return fmt.Errorf("%w: missing Rand", ErrConfig)
	}
	if c.CVS < 2 {
		return fmt.Errorf("%w: CVS must be ≥ 2, got %d", ErrConfig, c.CVS)
	}
	return nil
}
