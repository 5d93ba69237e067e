package core

import (
	"errors"
	"fmt"
	"math/rand"
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
	Rand *rand.Rand

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

	// Pool, when non-nil, is where the node gets its recycled memory;
	// it then takes precedence over AcquireMessage. An owner holding one
	// object per node implements it there, at no closure per node.
	Pool Pool

	// AcquireMessage, when non-nil, supplies outgoing message
	// envelopes — typically from a recycling pool owned by the thread
	// executing the node — instead of allocating one per send. Supplied
	// messages must be fully zeroed (Message.Reset); the node sets
	// every field it uses and relinquishes ownership on send. nil means
	// allocate.
	AcquireMessage func() *Message

	// SuppressMonPing, when non-nil, makes this node a colluding
	// monitor that silently drops its monitoring duty towards selected
	// targets: MonitorTick skips every target for which the hook
	// returns true (counted in MonitoringStats.PingsSuppressed). The
	// hook must be a pure function of the target identity — it runs on
	// the node's lane and must not draw randomness or retain state, or
	// sharded runs lose determinism.
	SuppressMonPing func(target ids.ID) bool
	// ForgeReport, when non-nil, intercepts every availability
	// estimate this node is about to report for a target it monitors
	// (EstimateOf, and therefore AVAIL-BATCH responses): it receives the
	// honest estimate and whether one exists, and returns what the
	// node actually reports. Colluders use it to whitewash or defame
	// the victims they monitor, or to suppress the report entirely
	// (return ok=false). Like SuppressMonPing it must be a pure
	// function of its inputs.
	ForgeReport func(target ids.ID, est float64, known bool) (float64, bool)
	// Overreport makes this node a misbehaving monitor that reports
	// 100% availability for every node it monitors (the attack of
	// Section 5.4, Figure 20).
	Overreport bool

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

// Pool supplies a node's recycled memory. Both methods are called only
// from the thread executing the node. AcquireMessage is under the
// contract written at Config.AcquireMessage; SweepScratch's instance
// must be owned by that thread (one per simulation worker, say), and
// carries no information between calls.
type Pool interface {
	AcquireMessage() *Message
	SweepScratch() *SweepScratch
}

// funcPool is the Pool of a Config that names none: AcquireMessage
// where set, else a fresh envelope per send, and a private scratch
// allocated on first use.
type funcPool struct {
	acquire func() *Message
	own     *SweepScratch
}

func (p *funcPool) AcquireMessage() *Message {
	if p.acquire != nil {
		return p.acquire()
	}
	return &Message{}
}

func (p *funcPool) SweepScratch() *SweepScratch {
	if p.own == nil {
		p.own = new(SweepScratch)
	}
	return p.own
}

// setDefaults fills in the defaults of the fields left zero; on a
// configuration that has them it writes nothing.
func (c *Config) setDefaults() {
	if c.Pool == nil {
		c.Pool = &funcPool{acquire: c.AcquireMessage}
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
	if c.Rand == nil {
		return fmt.Errorf("%w: missing Rand", ErrConfig)
	}
	if c.CVS < 2 {
		return fmt.Errorf("%w: CVS must be ≥ 2, got %d", ErrConfig, c.CVS)
	}
	return nil
}
