package experiments

// The chaos experiment (beyond the paper): adversarial and correlated-
// failure scenarios that the steady-state sweeps never exercise —
// a colluding/eclipsing monitor ring, a whole availability zone
// failing and healing, a flash crowd, and a mass leave. Every scenario
// is a paired-seed A/B: three arms share one derived seed, so the
// attack arm faces the identical churn-and-network realization as its
// control and the reported delta isolates the fault.
//
// The arms are deliberately asymmetric:
//
//   - baseline: no chaos plumbing at all (nil Collusion, empty outage
//     schedule, zeroed storm), simulated in one uninterrupted Run;
//   - control: the chaos plumbing installed at magnitude zero,
//     simulated as 24 sampling steps;
//   - attack: the fault injected, same 24 sampling steps.
//
// The experiment FAILS (returns an error) unless baseline and control
// end in fingerprint-identical clusters. That single gate proves two
// non-trivial properties at once: the zero-magnitude plumbing draws no
// stray randomness and schedules no perturbing events, and chopping a
// run into RunFor steps at sample boundaries cannot change results.

import (
	"fmt"
	"strings"
	"time"

	"avmon"
)

// ChaosArtifactName is the machine-readable output of the chaos
// experiment (written next to the tables by avmon-bench, checked into
// the repo like BENCH_scale.json).
const ChaosArtifactName = "BENCH_chaos.json"

// chaosDefaultN is the population when Options.Ns is not set.
const chaosDefaultN = 240

// chaosSamples is the number of equal sampling steps each measured arm
// is chopped into; the fault window spans steps 6..12.
const (
	chaosSamples    = 24
	chaosFaultStart = 6
	chaosFaultEnd   = 12
)

// chaosArm identifies one leg of a scenario's three-way comparison.
type chaosArm int

const (
	armBaseline chaosArm = iota // no chaos plumbing, one uninterrupted Run
	armControl                  // plumbing at magnitude zero, stepped run
	armAttack                   // fault injected, stepped run
)

func (a chaosArm) String() string {
	switch a {
	case armBaseline:
		return "baseline"
	case armControl:
		return "control"
	case armAttack:
		return "attack"
	default:
		return "?"
	}
}

// chaosTimeline is the shared schedule every scenario aligns to.
type chaosTimeline struct {
	step       time.Duration // one sampling step
	total      time.Duration // chaosSamples * step
	faultStart time.Duration // fault injected here
	faultEnd   time.Duration // fault healed here
}

func chaosTimes(o Options) chaosTimeline {
	step := o.scaled(4*time.Hour, 48*time.Minute) / chaosSamples
	return chaosTimeline{
		step:       step,
		total:      chaosSamples * step,
		faultStart: chaosFaultStart * step,
		faultEnd:   chaosFaultEnd * step,
	}
}

// chaosSpec describes one scenario: a name, a one-line summary for CLI
// listings, and a builder that assembles the cluster for a given arm.
type chaosSpec struct {
	name    string
	summary string
	build   func(o Options, n int, seed int64, tl chaosTimeline, arm chaosArm) (*avmon.Cluster, error)
}

func chaosSpecs() []chaosSpec {
	ms := time.Millisecond
	return []chaosSpec{
		{
			name: "collusion",
			summary: "a colluding quarter of the population turns on its victims: " +
				"monitoring pings suppressed, reports defamed to 0%",
			build: func(o Options, n int, seed int64, _ chaosTimeline, arm chaosArm) (*avmon.Cluster, error) {
				cfg := avmon.ClusterConfig{N: n, Seed: seed, Shards: o.Shards}
				switch arm {
				case armControl:
					cfg.Collusion = &avmon.CollusionConfig{Fraction: 0, SuppressPings: true, ForgedAvail: 0}
				case armAttack:
					cfg.Collusion = &avmon.CollusionConfig{Fraction: 0.25, SuppressPings: true, ForgedAvail: 0}
				}
				return avmon.NewCluster(cfg, avmon.NewSTATModel(n))
			},
		},
		{
			name: "zone-outage",
			summary: "one of three WAN zones fails for a quarter of the run, then the " +
				"partition heals; measures the coverage dip and recovery time",
			build: func(o Options, n int, seed int64, tl chaosTimeline, arm chaosArm) (*avmon.Cluster, error) {
				lat, err := avmon.NewZoneLatency([][]time.Duration{
					{10 * ms, 80 * ms, 150 * ms},
					{85 * ms, 15 * ms, 200 * ms},
					{140 * ms, 210 * ms, 12 * ms},
				}, 0.25)
				if err != nil {
					return nil, err
				}
				var schedule []avmon.ZoneOutage
				if arm == armAttack {
					// Round-trip the schedule through the textual format
					// so the parser the CLI and the fuzzer exercise is
					// load-bearing here too.
					text := fmt.Sprintf("1@%s+%s", tl.faultStart, tl.faultEnd-tl.faultStart)
					if schedule, err = avmon.ParseOutageSchedule(text); err != nil {
						return nil, err
					}
				}
				model, err := avmon.NewZoneOutageModel(n, 3, schedule)
				if err != nil {
					return nil, err
				}
				return avmon.NewCluster(avmon.ClusterConfig{
					N: n, Seed: seed, Shards: o.Shards,
					LatencyModel: lat,
				}, model)
			},
		},
		{
			name: "flash-crowd",
			summary: "a join storm: half again the population arrives inside two " +
				"sampling steps; discovery must absorb the surge",
			build: func(o Options, n int, seed int64, tl chaosTimeline, arm chaosArm) (*avmon.Cluster, error) {
				cfg := avmon.StormConfig{N: n}
				if arm == armAttack {
					cfg.SurgeNodes = n / 2
					cfg.SurgeAt = tl.faultStart
					cfg.SurgeWindow = tl.faultEnd - tl.faultStart
				}
				model, err := avmon.NewStormModel(cfg)
				if err != nil {
					return nil, err
				}
				return avmon.NewCluster(avmon.ClusterConfig{
					N: n, Seed: seed, Shards: o.Shards,
				}, model)
			},
		},
		{
			name: "mass-leave",
			summary: "40% of the population departs inside two sampling steps and " +
				"rejoins after the fault window; self-repair must restore coverage",
			build: func(o Options, n int, seed int64, tl chaosTimeline, arm chaosArm) (*avmon.Cluster, error) {
				cfg := avmon.StormConfig{N: n}
				if arm == armAttack {
					cfg.LeaveNodes = 2 * n / 5
					cfg.LeaveAt = tl.faultStart
					cfg.LeaveWindow = 2 * tl.step
					cfg.HealAt = tl.faultEnd
				}
				model, err := avmon.NewStormModel(cfg)
				if err != nil {
					return nil, err
				}
				return avmon.NewCluster(avmon.ClusterConfig{
					N: n, Seed: seed, Shards: o.Shards,
				}, model)
			},
		},
	}
}

// ChaosScenarioInfo names one chaos scenario for CLI listings
// (avmon-bench -run list, -chaos validation).
type ChaosScenarioInfo struct {
	Name    string
	Summary string
}

// ChaosScenarios lists every chaos scenario in run order.
func ChaosScenarios() []ChaosScenarioInfo {
	specs := chaosSpecs()
	out := make([]ChaosScenarioInfo, len(specs))
	for i, s := range specs {
		out[i] = ChaosScenarioInfo{Name: s.name, Summary: s.summary}
	}
	return out
}

// chaosSelect resolves Options.Chaos to scenario specs, rejecting
// unknown names with the full valid list in the error (the discovery
// surface of avmon-bench -chaos). Options.validate calls it before
// anything runs.
func chaosSelect(names []string) ([]chaosSpec, error) {
	specs := chaosSpecs()
	if len(names) == 0 {
		return specs, nil
	}
	byName := make(map[string]chaosSpec, len(specs))
	valid := make([]string, len(specs))
	for i, s := range specs {
		byName[s.name], valid[i] = s, s.name
	}
	out := make([]chaosSpec, 0, len(names))
	for _, name := range names {
		s, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("%w: unknown chaos scenario %q (valid: %s)",
				ErrInvalidOptions, name, strings.Join(valid, ", "))
		}
		out = append(out, s)
	}
	return out, nil
}

// chaosProto is the aggregate protocol-visible state of one finished
// arm, as the artifact and the gate table report it. Every field is a
// deterministic function of (scenario, arm, seed, shard count).
type chaosProto struct {
	Events     uint64 `json:"events"`
	Alive      int    `json:"alive"`
	Size       int    `json:"size"`
	PSTotal    int    `json:"ps_total"`
	CVTotal    int    `json:"cv_total"`
	MonPings   uint64 `json:"mon_pings"`
	MonAcks    uint64 `json:"mon_acks"`
	BytesOut   uint64 `json:"bytes_out"`
	HashChecks uint64 `json:"hash_checks"`
}

func chaosProtoOf(c *avmon.Cluster) chaosProto {
	p := chaosProto{Events: c.Steps(), Alive: c.AliveCount(), Size: c.Size()}
	for i := 0; i < c.Size(); i++ {
		st := c.Stats(i)
		p.PSTotal += st.PSSize
		p.CVTotal += st.CVSize
		p.MonPings += st.MonPingsSent
		p.MonAcks += st.MonAcks
		p.BytesOut += st.Traffic.BytesOut
		p.HashChecks += st.HashChecks
	}
	return p
}

// chaosCoverage measures the system's useful monitoring capacity over
// alive honest nodes: fill is the mean of (alive honest monitors
// discovered) / K, eclipsed the fraction with none — nobody trustworthy
// measures them. Fill dips when monitors die (zone outage), when they
// defect (collusion), and when newcomers have not been discovered yet
// (flash crowd), and climbs back as the protocol self-repairs.
func chaosCoverage(c *avmon.Cluster) (fill, eclipsed float64) {
	trusted := func(i int) bool { return !c.IsColluder(i) && c.Stats(i).Alive }
	honest, dark := 0, 0
	k := float64(c.K())
	for i := 0; i < c.Size(); i++ {
		if !trusted(i) {
			continue
		}
		honest++
		useful := 0
		for _, mon := range c.MonitorsOf(i) {
			if mi, ok := c.IndexOf(mon); ok && trusted(mi) {
				useful++
			}
		}
		fill += float64(useful) / k
		if useful == 0 {
			dark++
		}
	}
	if honest == 0 {
		return 0, 0
	}
	return fill / float64(honest), float64(dark) / float64(honest)
}

// ChaosPoint is one (scenario, arm) cell as serialized into
// BENCH_chaos.json. The baseline arm carries protocol metrics only;
// measured arms add the sampled coverage series and the derived
// dip/recovery summary.
type ChaosPoint struct {
	Scenario string `json:"scenario"`
	Arm      string `json:"arm"`
	N        int    `json:"n"`

	// MonFill is the mean alive-honest-monitors-per-K series, sampled
	// once per step; sample i is taken at virtual time (i+1)·step.
	MonFill []float64 `json:"mon_fill,omitempty"`
	// FillPreFault is the last sample strictly before the fault
	// window, FillDip the minimum inside it, FillEnd the final sample.
	FillPreFault float64 `json:"fill_pre_fault"`
	FillDip      float64 `json:"fill_dip"`
	FillEnd      float64 `json:"fill_end"`
	// RecoverySeconds is the virtual time from the heal to the first
	// sample whose fill regained the pre-fault level (-1 = never
	// within the run).
	RecoverySeconds float64 `json:"recovery_seconds"`
	// Eclipsed is the fraction of honest alive nodes with no alive
	// honest monitor at run end; Affected is the Figure 20
	// mis-estimation criterion at run end.
	Eclipsed float64 `json:"eclipsed_fraction"`
	Affected float64 `json:"affected_fraction"`

	Proto chaosProto `json:"proto"`

	// fingerprint is the finished arm's Cluster.Fingerprint, which the
	// control-arm gate compares.
	fingerprint string
}

// chaosRunArm simulates one arm of one scenario and extracts its
// metrics.
func chaosRunArm(spec chaosSpec, arm chaosArm, o Options, n int, seed int64, tl chaosTimeline) (ChaosPoint, error) {
	pt := ChaosPoint{Scenario: spec.name, Arm: arm.String(), N: n, RecoverySeconds: -1}
	c, err := spec.build(o, n, seed, tl, arm)
	if err != nil {
		return pt, fmt.Errorf("chaos %s/%s: %w", spec.name, arm, err)
	}
	if arm == armBaseline {
		// One uninterrupted run: the reference the stepped control arm
		// must match byte-for-byte.
		c.Run(tl.total)
		pt.Proto, pt.fingerprint = chaosProtoOf(c), c.Fingerprint()
		return pt, nil
	}
	fill := make([]float64, chaosSamples)
	for i := 0; i < chaosSamples; i++ {
		c.Run(tl.step)
		fill[i], pt.Eclipsed = chaosCoverage(c)
	}
	pt.MonFill = fill
	// Sample i lands at (i+1)·step; the fault spans steps
	// [chaosFaultStart, chaosFaultEnd)·step. Boundary samples could
	// fall on either side of the injection event, so the pre-fault
	// reference stops one sample early and the dip window includes the
	// boundary.
	pt.FillPreFault = fill[chaosFaultStart-2]
	pt.FillDip = fill[chaosFaultStart-1]
	for i := chaosFaultStart - 1; i < chaosFaultEnd; i++ {
		if fill[i] < pt.FillDip {
			pt.FillDip = fill[i]
		}
	}
	pt.FillEnd = fill[chaosSamples-1]
	for i := chaosFaultEnd; i < chaosSamples; i++ {
		if fill[i] >= pt.FillPreFault {
			pt.RecoverySeconds = (time.Duration(i+1)*tl.step - tl.faultEnd).Seconds()
			break
		}
	}
	pt.Affected = affectedFraction(c)
	pt.Proto, pt.fingerprint = chaosProtoOf(c), c.Fingerprint()
	return pt, nil
}

// chaosArtifact is the BENCH_chaos.json envelope.
type chaosArtifact struct {
	Experiment  string       `json:"experiment"`
	Seed        int64        `json:"seed"`
	Scale       float64      `json:"scale"`
	N           int          `json:"n"`
	Shards      int          `json:"shards"`
	Samples     int          `json:"samples"`
	StepSeconds float64      `json:"step_seconds"`
	FaultStartS float64      `json:"fault_start_seconds"`
	FaultEndS   float64      `json:"fault_end_seconds"`
	Host        HostStats    `json:"host"`
	Points      []ChaosPoint `json:"points"`
}

// chaos runs the adversarial and correlated-failure scenario suite:
// collusion/eclipse, zone outage with partition heal, flash crowd, and
// mass leave. Every scenario runs three arms on one derived seed —
// baseline (no chaos plumbing, uninterrupted), control (plumbing at
// magnitude zero, stepped), attack (fault on, stepped) — and the
// experiment returns an error unless each scenario's control arm is
// fingerprint-identical to its baseline, proving the plumbing itself
// perturbs nothing. Options.Chaos selects a scenario subset; Options.Ns[0]
// overrides the population (default 240).
func chaos(o Options) (*Result, error) {
	specs, err := chaosSelect(o.Chaos)
	if err != nil {
		return nil, err
	}
	n := chaosDefaultN
	if len(o.Ns) > 0 {
		n = o.Ns[0]
	}
	if n < 20 {
		return nil, fmt.Errorf("%w: N=%d too small (need ≥ 20 for meaningful cohorts)", ErrInvalidOptions, n)
	}
	tl := chaosTimes(o)
	arms := []chaosArm{armBaseline, armControl, armAttack}
	pts := make([]ChaosPoint, len(specs)*len(arms))
	err = forEachPoint(o, len(pts),
		func(i int) string {
			return fmt.Sprintf("chaos %s/%s", specs[i/len(arms)].name, arms[i%len(arms)])
		},
		func(i int) error {
			spec, arm := specs[i/len(arms)], arms[i%len(arms)]
			// All three arms share the scenario's derived seed: the
			// attack delta is a paired comparison on one realization.
			var err error
			pts[i], err = chaosRunArm(spec, arm, o, n, deriveSeed(o.Seed, i/len(arms)), tl)
			return err
		})
	if err != nil {
		return nil, err
	}
	gate := &Table{
		Title:  "Control-arm gate: zero-magnitude chaos plumbing is a no-op (baseline vs stepped control)",
		Header: []string{"scenario", "events", "mon pings", "bytes out", "gate"},
	}
	for si, spec := range specs {
		base, ctrl := pts[si*len(arms)], pts[si*len(arms)+1]
		if base.fingerprint != ctrl.fingerprint {
			return nil, fmt.Errorf("chaos %s: control arm diverged from the no-attack baseline: fingerprint %s vs %s (%+v vs %+v)",
				spec.name, ctrl.fingerprint, base.fingerprint, ctrl.Proto, base.Proto)
		}
		gate.AddRow(spec.name, u64(base.Proto.Events), u64(base.Proto.MonPings),
			u64(base.Proto.BytesOut), "identical")
	}
	cover := &Table{
		Title: "Chaos scenarios: useful monitoring capacity under fault (paired seeds)",
		Header: []string{"scenario", "arm", "fill pre-fault", "fill dip", "fill end",
			"recovery (min)", "eclipsed", "affected", "alive", "events"},
	}
	for _, pt := range pts {
		if pt.Arm == armBaseline.String() {
			continue
		}
		rec := "-"
		if pt.RecoverySeconds >= 0 {
			rec = f2(pt.RecoverySeconds / 60)
		}
		cover.AddRow(pt.Scenario, pt.Arm, f4(pt.FillPreFault), f4(pt.FillDip), f4(pt.FillEnd),
			rec, f4(pt.Eclipsed), f4(pt.Affected), itoa(pt.Proto.Alive), u64(pt.Proto.Events))
	}
	artifacts, err := artifact("chaos", ChaosArtifactName, chaosArtifact{
		Experiment:  "chaos",
		Seed:        o.Seed,
		Scale:       o.Scale,
		N:           n,
		Shards:      o.Shards,
		Samples:     chaosSamples,
		StepSeconds: tl.step.Seconds(),
		FaultStartS: tl.faultStart.Seconds(),
		FaultEndS:   tl.faultEnd.Seconds(),
		Host:        collectHostStats(),
		Points:      pts,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:        "chaos",
		Title:     "Adversarial & chaos scenario suite (paired-seed A/B with a control-arm gate)",
		Tables:    []*Table{cover, gate},
		Artifacts: artifacts,
	}, nil
}
