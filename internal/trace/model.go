package trace

import (
	"math/rand"
	"time"

	"avmon/internal/churn"
	"avmon/internal/sim"
)

// Model adapts a Trace to the churn.Model interface so trace-driven
// experiments run through the same cluster driver as the synthetic
// models (paper Section 5: "injected as such in the simulation").
type Model struct {
	trace *Trace

	eng    *sim.Engine
	driver churn.Driver
	rng    *rand.Rand
	next   int // next driver index for Enroll-created nodes

	meanSession time.Duration
	meanDown    time.Duration
}

var _ churn.Model = (*Model)(nil)

// NewModel wraps a validated trace.
func NewModel(t *Trace) (*Model, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	ms, md := t.SessionStats()
	if ms <= 0 {
		ms = time.Hour
	}
	if md <= 0 {
		md = 30 * time.Minute
	}
	return &Model{trace: t, meanSession: ms, meanDown: md}, nil
}

// Name implements churn.Model.
func (m *Model) Name() string { return m.trace.Name }

// StableN implements churn.Model.
func (m *Model) StableN() int { return m.trace.StableN }

// Trace returns the underlying trace.
func (m *Model) Trace() *Trace { return m.trace }

// Install implements churn.Model: it schedules every session
// transition in the trace.
func (m *Model) Install(eng *sim.Engine, d churn.Driver) {
	m.eng = eng
	m.driver = d
	m.rng = eng.Rand()
	m.next = len(m.trace.Nodes)
	for i := range m.trace.Nodes {
		nt := &m.trace.Nodes[i]
		idx := i
		for j, s := range nt.Sessions {
			first := j == 0
			start := s.Start
			eng.At(sim.Epoch.Add(start), func() {
				if first {
					m.driver.Birth(idx)
				} else {
					m.driver.Rejoin(idx)
				}
			})
			end := s.End
			if end < m.trace.Duration { // leaving exactly at horizon is invisible
				eng.At(sim.Epoch.Add(end), func() { m.driver.Leave(idx) })
			}
		}
		if nt.Dead() {
			at := nt.DeathAt
			eng.At(sim.Epoch.Add(at), func() { m.driver.Death(idx) })
		}
	}
}

// Enroll implements churn.Model: the control node is born now and then
// follows sessions drawn from the trace's empirical mean session and
// downtime lengths.
func (m *Model) Enroll() int {
	idx := m.next
	m.next++
	m.driver.Birth(idx)
	m.scheduleLeave(idx)
	return idx
}

func (m *Model) scheduleLeave(idx int) {
	d := time.Duration(m.rng.ExpFloat64() * float64(m.meanSession))
	m.eng.After(d, func() {
		m.driver.Leave(idx)
		m.scheduleRejoin(idx)
	})
}

func (m *Model) scheduleRejoin(idx int) {
	d := time.Duration(m.rng.ExpFloat64() * float64(m.meanDown))
	m.eng.After(d, func() {
		m.driver.Rejoin(idx)
		m.scheduleLeave(idx)
	})
}
