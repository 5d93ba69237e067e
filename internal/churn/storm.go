package churn

import (
	"fmt"
	"time"

	"avmon/internal/sim"
)

// StormConfig parameterizes the flash-crowd / mass-leave storm model:
// a static base population of N nodes born in index order
// (synthModel.orderedJoin, so node i owns lane i+1), plus up to two
// deterministic population shocks:
//
//   - a flash crowd: SurgeNodes extra nodes (indexes N..N+SurgeNodes-1)
//     join evenly spread across [SurgeAt, SurgeAt+SurgeWindow);
//   - a mass leave: the first LeaveNodes base indexes leave evenly
//     spread across [LeaveAt, LeaveAt+LeaveWindow), and — when HealAt
//     is set — rejoin in the same order starting at HealAt.
//
// With both shocks zeroed the model degenerates to an ordered static
// population, which is the storm scenarios' attack-off control arm.
type StormConfig struct {
	// N is the base population and the protocol parameter N; the
	// shocks are the perturbation the protocol must absorb.
	N int

	// SurgeNodes is the flash-crowd cohort size (0 disables the
	// surge).
	SurgeNodes int
	// SurgeAt is when the first surge node joins.
	SurgeAt time.Duration
	// SurgeWindow is the ramp width; the cohort joins evenly spaced
	// across it. Must be positive when SurgeNodes > 0.
	SurgeWindow time.Duration

	// LeaveNodes is the mass-leave cohort size, drawn from the base
	// population's first indexes (0 disables the leave; must be ≤ N).
	LeaveNodes int
	// LeaveAt is when the first leaver departs.
	LeaveAt time.Duration
	// LeaveWindow is the departure ramp width. Must be positive when
	// LeaveNodes > 0.
	LeaveWindow time.Duration
	// HealAt, when positive, has the leavers rejoin evenly spread
	// across [HealAt, HealAt+LeaveWindow); it must be ≥
	// LeaveAt+LeaveWindow. Zero means the leavers are gone for good
	// and the survivors' self-repair is what the scenario measures.
	HealAt time.Duration
}

// stormModel overlays deterministic join/leave waves on a static
// ordered-join base population.
type stormModel struct {
	*synthModel
	cfg StormConfig
}

// NewStorm returns the flash-crowd / mass-leave model ("STORM").
func NewStorm(cfg StormConfig) (Model, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("churn: N must be positive, got %d", cfg.N)
	}
	if cfg.SurgeNodes < 0 || cfg.LeaveNodes < 0 {
		return nil, fmt.Errorf("churn: negative storm cohort (surge=%d, leave=%d)",
			cfg.SurgeNodes, cfg.LeaveNodes)
	}
	if cfg.LeaveNodes > cfg.N {
		return nil, fmt.Errorf("churn: mass-leave cohort %d exceeds base population %d",
			cfg.LeaveNodes, cfg.N)
	}
	if cfg.SurgeNodes > 0 && (cfg.SurgeAt < 0 || cfg.SurgeWindow <= 0) {
		return nil, fmt.Errorf("churn: surge needs SurgeAt ≥ 0 and SurgeWindow > 0 (at=%v, window=%v)",
			cfg.SurgeAt, cfg.SurgeWindow)
	}
	if cfg.LeaveNodes > 0 && (cfg.LeaveAt < 0 || cfg.LeaveWindow <= 0) {
		return nil, fmt.Errorf("churn: mass leave needs LeaveAt ≥ 0 and LeaveWindow > 0 (at=%v, window=%v)",
			cfg.LeaveAt, cfg.LeaveWindow)
	}
	if cfg.HealAt != 0 && cfg.HealAt < cfg.LeaveAt+cfg.LeaveWindow {
		return nil, fmt.Errorf("churn: HealAt %v precedes the end of the leave wave %v",
			cfg.HealAt, cfg.LeaveAt+cfg.LeaveWindow)
	}
	return &stormModel{
		synthModel: &synthModel{name: "STORM", n: cfg.N, orderedJoin: true},
		cfg:        cfg,
	}, nil
}

// Install implements Model: the ordered base population plus the
// scheduled surge and leave/heal waves.
func (m *stormModel) Install(eng *sim.Engine, d Driver) {
	m.synthModel.Install(eng, d)
	// Surge indexes are allocated here, before any Enroll call, so the
	// flash-crowd cohort is always N..N+SurgeNodes-1.
	for i := 0; i < m.cfg.SurgeNodes; i++ {
		idx := m.newNode()
		at := m.cfg.SurgeAt + time.Duration(i)*m.cfg.SurgeWindow/time.Duration(m.cfg.SurgeNodes)
		eng.At(sim.Epoch.Add(at), func() { m.birth(idx) })
	}
	for i := 0; i < m.cfg.LeaveNodes; i++ {
		idx := i
		step := time.Duration(i) * m.cfg.LeaveWindow / time.Duration(m.cfg.LeaveNodes)
		eng.At(sim.Epoch.Add(m.cfg.LeaveAt+step), func() { m.force(idx, false) })
		if m.cfg.HealAt > 0 {
			eng.At(sim.Epoch.Add(m.cfg.HealAt+step), func() { m.force(idx, true) })
		}
	}
}
