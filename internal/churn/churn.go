// Package churn implements the synthetic availability models of the
// paper's evaluation (Section 5):
//
//   - STAT: a static network with no churn.
//   - SYNTH: join/leave churn with exponentially distributed sessions
//     and downtimes (Poisson processes), no births or deaths. The
//     paper targets a 20%-per-hour churn rate (akin to Overnet [2]).
//   - SYNTH-BD: SYNTH plus node birth and death, each Poisson at
//     20% per day of the stable size (SYNTH-BD2 doubles that,
//     Section 5.3).
//
// A Model schedules lifecycle events onto a sim.Engine and reports
// them to a Driver (the cluster under test). All models keep the alive
// population within a constant factor of the stable size N, matching
// the paper's system-model assumption.
package churn

import (
	"fmt"
	"math/rand"
	"time"

	"avmon/internal/sim"
)

// Driver receives lifecycle events for simulated nodes. Node indexes
// are dense small integers assigned by the model.
type Driver interface {
	// Birth creates node idx and has it join for the first time.
	Birth(idx int)
	// Rejoin has a previously known node re-enter the system.
	Rejoin(idx int)
	// Leave has node idx leave or fail (it may rejoin later).
	Leave(idx int)
	// Death removes node idx for good. Deaths are silent: the driver
	// must treat this exactly like a Leave that never un-does.
	Death(idx int)
}

// Model drives churn for one availability scenario.
type Model interface {
	// Name returns the plot label (STAT, SYNTH, ...).
	Name() string
	// StableN returns the stable system size N.
	StableN() int
	// Install creates the initial population and schedules all future
	// churn on eng. Call exactly once.
	Install(eng *sim.Engine, d Driver)
	// Enroll births one extra (control-group) node immediately and
	// subjects it to the model's ongoing churn. It returns the new
	// node's index. Install must have been called first.
	Enroll() int
}

type nodeState struct {
	up   bool
	dead bool
	gen  uint64 // invalidates scheduled session events after state changes
}

// sessionParams holds one availability class's exponential session
// and downtime means.
type sessionParams struct {
	meanSession time.Duration // 0 disables leaving
	meanDown    time.Duration
}

// synthModel implements STAT (zero rates), SYNTH, SYNTH-BD, and the
// heterogeneous Mixed model.
type synthModel struct {
	name        string
	n           int
	meanSession time.Duration // 0 disables leaving (STAT)
	meanDown    time.Duration
	birthRate   float64 // births per minute, system-wide (0 disables)
	deathRate   float64 // deaths per minute, system-wide

	// classes, when non-nil, gives per-class session parameters;
	// classFor maps a node index to its class. Used by NewMixed.
	classes  []sessionParams
	classFor func(idx int) int

	// orderedJoin makes Install birth the initial population in index
	// order with evenly spaced (rather than random) offsets, so node
	// index i always lands on simulation lane i+1. Used by the zone
	// outage and storm models, which need an exact index → zone → lane
	// mapping.
	orderedJoin bool

	eng    *sim.Engine
	driver Driver
	rng    *rand.Rand
	states []nodeState
}

var _ Model = (*synthModel)(nil)

// NewSTAT returns the static model: n nodes join at the start and
// never leave.
func NewSTAT(n int) Model {
	return &synthModel{name: "STAT", n: n}
}

// SynthConfig parameterizes the SYNTH and SYNTH-BD models.
type SynthConfig struct {
	// N is the stable system size.
	N int
	// ChurnPerHour is the fraction of the population that leaves per
	// hour (paper: 0.2, i.e. λl = 0.2N/60 per minute). The per-node
	// mean session time is 1h/ChurnPerHour.
	ChurnPerHour float64
	// MeanDowntime is the expected downtime before a rejoin. In
	// steady state the rejoin rate then equals the leave rate
	// (λr = λl as in the paper). Default 30 minutes.
	MeanDowntime time.Duration
	// BirthDeathPerDay is the fraction of N born (and dying) per day
	// (paper: 0.2 for SYNTH-BD, 0.4 for SYNTH-BD2). Zero disables
	// births and deaths.
	BirthDeathPerDay float64
}

// NewSYNTH returns a join/leave model with no births or deaths.
func NewSYNTH(cfg SynthConfig) (Model, error) {
	cfg.BirthDeathPerDay = 0
	return newSynth("SYNTH", cfg)
}

// NewSYNTHBD returns the join/leave/birth/death model. The name
// reported is SYNTH-BD.
func NewSYNTHBD(cfg SynthConfig) (Model, error) {
	if cfg.BirthDeathPerDay <= 0 {
		cfg.BirthDeathPerDay = 0.2
	}
	name := "SYNTH-BD"
	if cfg.BirthDeathPerDay >= 0.4 {
		name = "SYNTH-BD2"
	}
	return newSynth(name, cfg)
}

func newSynth(name string, cfg SynthConfig) (Model, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("churn: N must be positive, got %d", cfg.N)
	}
	if cfg.ChurnPerHour <= 0 {
		return nil, fmt.Errorf("churn: ChurnPerHour must be positive, got %v", cfg.ChurnPerHour)
	}
	if cfg.MeanDowntime <= 0 {
		cfg.MeanDowntime = 30 * time.Minute
	}
	meanSession := time.Duration(float64(time.Hour) / cfg.ChurnPerHour)
	m := &synthModel{
		name:        name,
		n:           cfg.N,
		meanSession: meanSession,
		meanDown:    cfg.MeanDowntime,
	}
	if cfg.BirthDeathPerDay > 0 {
		m.birthRate = cfg.BirthDeathPerDay * float64(cfg.N) / (24 * 60)
		m.deathRate = m.birthRate
	}
	return m, nil
}

// Name implements Model.
func (m *synthModel) Name() string { return m.name }

// StableN implements Model.
func (m *synthModel) StableN() int { return m.n }

// Install implements Model.
func (m *synthModel) Install(eng *sim.Engine, d Driver) {
	m.eng = eng
	m.driver = d
	m.rng = eng.Rand()
	// Stagger initial joins across one minute so protocol periods are
	// asynchronous from the start (evenly when the model needs births
	// in index order, uniformly at random otherwise).
	for i := 0; i < m.n; i++ {
		idx := m.newNode()
		var delay time.Duration
		if m.orderedJoin {
			delay = time.Duration(i) * (time.Minute / time.Duration(m.n))
		} else {
			delay = time.Duration(m.rng.Int63n(int64(time.Minute)))
		}
		eng.After(delay, func() { m.birth(idx) })
	}
	if m.birthRate > 0 {
		m.scheduleNext(m.birthRate, m.birthEvent)
		m.scheduleNext(m.deathRate, m.deathEvent)
	}
}

// Enroll implements Model.
func (m *synthModel) Enroll() int {
	idx := m.newNode()
	m.birth(idx)
	return idx
}

func (m *synthModel) newNode() int {
	m.states = append(m.states, nodeState{})
	return len(m.states) - 1
}

func (m *synthModel) birth(idx int) {
	st := &m.states[idx]
	st.up = true
	st.gen++
	m.driver.Birth(idx)
	m.scheduleLeave(idx)
}

// force moves node idx up or down outside its own session schedule —
// a zone outage or a storm shock. A dead node, or one already there, is
// left alone; bumping gen retires the session event it had queued.
func (m *synthModel) force(idx int, up bool) {
	st := &m.states[idx]
	if st.dead || st.up == up {
		return
	}
	st.up = up
	st.gen++
	if up {
		m.driver.Rejoin(idx)
	} else {
		m.driver.Leave(idx)
	}
}

// paramsFor returns the session parameters governing node idx.
func (m *synthModel) paramsFor(idx int) sessionParams {
	if m.classes != nil && m.classFor != nil {
		class := m.classFor(idx)
		if class >= 0 && class < len(m.classes) {
			return m.classes[class]
		}
	}
	return sessionParams{meanSession: m.meanSession, meanDown: m.meanDown}
}

func (m *synthModel) scheduleLeave(idx int) {
	p := m.paramsFor(idx)
	if p.meanSession <= 0 {
		return // sessions never end for this class
	}
	st := &m.states[idx]
	gen := st.gen
	d := m.expDur(p.meanSession)
	m.eng.After(d, func() {
		st := &m.states[idx]
		if st.gen != gen || st.dead || !st.up {
			return
		}
		st.up = false
		st.gen++
		m.driver.Leave(idx)
		m.scheduleRejoin(idx)
	})
}

func (m *synthModel) scheduleRejoin(idx int) {
	st := &m.states[idx]
	gen := st.gen
	d := m.expDur(m.paramsFor(idx).meanDown)
	m.eng.After(d, func() {
		st := &m.states[idx]
		if st.gen != gen || st.dead || st.up {
			return
		}
		st.up = true
		st.gen++
		m.driver.Rejoin(idx)
		m.scheduleLeave(idx)
	})
}

// scheduleNext arms a Poisson process with the given per-minute rate.
func (m *synthModel) scheduleNext(ratePerMin float64, fire func()) {
	if ratePerMin <= 0 {
		return
	}
	gap := time.Duration(m.rng.ExpFloat64() / ratePerMin * float64(time.Minute))
	m.eng.After(gap, func() {
		fire()
		m.scheduleNext(ratePerMin, fire)
	})
}

func (m *synthModel) birthEvent() {
	idx := m.newNode()
	m.birth(idx)
}

func (m *synthModel) deathEvent() {
	// Deaths pick a uniformly random non-dead node (reservoir sample).
	victim, count := -1, 0
	for i := range m.states {
		if m.states[i].dead {
			continue
		}
		count++
		if m.rng.Intn(count) == 0 {
			victim = i
		}
	}
	if victim < 0 {
		return
	}
	st := &m.states[victim]
	st.dead = true
	st.up = false
	st.gen++
	m.driver.Death(victim)
}

func (m *synthModel) expDur(mean time.Duration) time.Duration {
	return time.Duration(m.rng.ExpFloat64() * float64(mean))
}

// MixedConfig parameterizes the heterogeneous availability model used
// by availability-aware application examples: a stable class that is
// almost always up and a flaky class that churns heavily. This is the
// regime in which availability-informed node selection (replication,
// multicast parents — the paper's motivating applications [3,4,7,11])
// pays off.
type MixedConfig struct {
	// NStable nodes rarely leave (mean session 100h, mean down 5m).
	NStable int
	// NFlaky nodes churn heavily with the given mean session and
	// downtime (defaults: 30m up, 60m down → ≈33% availability).
	NFlaky         int
	FlakySession   time.Duration
	FlakyDowntime  time.Duration
	StableSession  time.Duration
	StableDowntime time.Duration
}

// NewMixed returns the heterogeneous model. Node indexes below
// NStable are stable; the rest (including Enroll-created nodes) are
// flaky.
func NewMixed(cfg MixedConfig) (Model, error) {
	if cfg.NStable <= 0 || cfg.NFlaky <= 0 {
		return nil, fmt.Errorf("churn: both classes must be non-empty (stable=%d, flaky=%d)",
			cfg.NStable, cfg.NFlaky)
	}
	if cfg.StableSession <= 0 {
		cfg.StableSession = 100 * time.Hour
	}
	if cfg.StableDowntime <= 0 {
		cfg.StableDowntime = 5 * time.Minute
	}
	if cfg.FlakySession <= 0 {
		cfg.FlakySession = 30 * time.Minute
	}
	if cfg.FlakyDowntime <= 0 {
		cfg.FlakyDowntime = time.Hour
	}
	stable := cfg.NStable
	return &synthModel{
		name: "MIXED",
		n:    cfg.NStable + cfg.NFlaky,
		classes: []sessionParams{
			{meanSession: cfg.StableSession, meanDown: cfg.StableDowntime},
			{meanSession: cfg.FlakySession, meanDown: cfg.FlakyDowntime},
		},
		classFor: func(idx int) int {
			if idx < stable {
				return 0
			}
			return 1
		},
	}, nil
}

// AliveCount returns how many enrolled nodes the model currently
// considers up (test/diagnostic helper).
func (m *synthModel) AliveCount() int {
	n := 0
	for i := range m.states {
		if m.states[i].up {
			n++
		}
	}
	return n
}
