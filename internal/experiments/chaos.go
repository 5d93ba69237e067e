package experiments

// The chaos experiment (beyond the paper): adversarial and correlated-
// failure scenarios that the steady-state sweeps never exercise —
// a colluding monitor ring, a whole availability zone
// failing and healing, a flash crowd, and a mass leave. Every scenario
// is a paired-seed A/B: three arms share one derived seed, so the
// attack arm faces the identical churn-and-network realization as its
// control and the reported delta isolates the fault.
//
// The arms are deliberately asymmetric:
//
//   - baseline: no chaos plumbing at all (no colluders, empty outage
//     schedule, zeroed storm), simulated in one uninterrupted Run;
//   - control: the chaos plumbing installed at magnitude zero,
//     simulated as 24 sampling steps, the baseline's twin;
//   - attack: the fault injected, same 24 sampling steps.
//
// The sweep FAILS unless baseline and control end in fingerprint-
// identical clusters (the engine's twin rule). That single gate proves
// two non-trivial properties at once: the zero-magnitude plumbing draws
// no stray randomness and schedules no perturbing events, and chopping
// a run into RunFor steps at sample boundaries cannot change results.
// The collusion attack arm is its control's twin too: colluders lie
// only in the read-outs (avmon's Cluster.Availability), so the run
// under attack must end fingerprint-identical to the honest one.

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

// chaosArms names the three legs of a scenario, in sweep order.
var chaosArms = []string{"baseline", "control", "attack"}

// chaosStep is one sampling step; every scenario's schedule is laid out
// in steps.
func chaosStep(o Options) time.Duration {
	return o.scaled(4*time.Hour, 48*time.Minute) / chaosSamples
}

// chaosScens is the suite: four faults, each as (baseline, control,
// attack) on the population Options.Ns[0] (default 240).
func chaosScens(o Options) []scenario {
	step, ms := chaosStep(o), time.Millisecond
	faultStart, faultEnd := chaosFaultStart*step, chaosFaultEnd*step
	n := o.firstN(chaosDefaultN)
	zones := mustModel(avmon.NewZoneLatency([][]time.Duration{
		{10 * ms, 80 * ms, 150 * ms},
		{85 * ms, 15 * ms, 200 * ms},
		{140 * ms, 210 * ms, 12 * ms},
	}, 0.25))
	var scens []scenario
	// add appends one scenario's arms: off has no chaos plumbing, zero
	// has it at magnitude zero, on injects the fault.
	add := func(name string, off, zero, on scenario) {
		for i, s := range []scenario{off, zero, on} {
			s.n, s.measure, s.label = n, chaosSamples*step, name+"/"+chaosArms[i]
			if i > 0 {
				s.samples = chaosSamples
			}
			if i == 1 {
				s.twin = 1
			}
			scens = append(scens, s)
		}
	}
	// A colluding quarter of the population turns on its victims: asked
	// about one, a colluder answers 0%. The lie is the read-out's, so
	// the attack arm is gated as its control's twin.
	add("collusion", scenario{kind: modelSTAT},
		scenario{kind: modelSTAT, collusion: 0},
		scenario{kind: modelSTAT, collusion: 0.25, twin: 1})
	// One of three WAN zones fails for a quarter of the run, then the
	// partition heals: the coverage dip and the recovery time.
	quiet := scenario{kind: modelZoneOutage, latModel: zones}
	outage := quiet
	outage.outages = fmt.Sprintf("1@%s+%s", faultStart, faultEnd-faultStart)
	add("zone-outage", quiet, quiet, outage)
	// A join storm: half again the population arrives inside the fault
	// window; discovery must absorb the surge.
	calm := scenario{kind: modelStorm}
	add("flash-crowd", calm, calm, scenario{kind: modelStorm, storm: avmon.StormConfig{
		SurgeNodes: n / 2, SurgeAt: faultStart, SurgeWindow: faultEnd - faultStart}})
	// 40% of the population departs inside two sampling steps and
	// rejoins after the fault window; self-repair must restore coverage.
	add("mass-leave", calm, calm, scenario{kind: modelStorm, storm: avmon.StormConfig{
		LeaveNodes: 2 * n / 5, LeaveAt: faultStart, LeaveWindow: 2 * step, HealAt: faultEnd}})
	return scens
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

// ChaosPoint is one (scenario, arm) cell as serialized into
// BENCH_chaos.json. The baseline arm carries protocol metrics only;
// measured arms add the sampled coverage series and the derived
// dip/recovery summary.
type ChaosPoint struct {
	Scenario string `json:"scenario"`
	Arm      string `json:"arm"`
	N        int    `json:"n"`

	// MonFill is the mean alive-honest-monitors-per-K series (see
	// coverage), sampled once per step; sample i is taken at virtual
	// time (i+1)·step.
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
}

// chaosPoint reads one finished arm.
func chaosPoint(out *outcome) ChaosPoint {
	name, arm, _ := strings.Cut(out.s.label, "/")
	pt := ChaosPoint{Scenario: name, Arm: arm, N: out.s.n, RecoverySeconds: -1, Proto: chaosProtoOf(out.c)}
	fill := out.fill
	if len(fill) == 0 {
		return pt // the uninterrupted baseline: protocol metrics only
	}
	step := out.s.measure / chaosSamples
	pt.MonFill, pt.Eclipsed = fill, out.eclipsed
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
			pt.RecoverySeconds = (time.Duration(i+1)*step - chaosFaultEnd*step).Seconds()
			break
		}
	}
	pt.Affected = affectedFraction(out.c, 0)
	return pt
}

// chaosParams are the constants BENCH_chaos.json's points are read
// against: the sampling grid and the fault window.
type chaosParams struct {
	Samples     int     `json:"samples"`
	StepSeconds float64 `json:"step_seconds"`
	FaultStartS float64 `json:"fault_start_seconds"`
	FaultEndS   float64 `json:"fault_end_seconds"`
}

// chaosReport renders the suite: useful monitoring capacity per
// measured arm, and the gate table — one row per scenario whose stepped
// zero-magnitude control ended fingerprint-identical to its baseline
// (the sweep would not have got here otherwise).
func chaosReport(o Options, outs []*outcome) ([]*Table, any, any) {
	cover := &Table{
		Title: "Chaos scenarios: useful monitoring capacity under fault (paired seeds)",
		Header: []string{"scenario", "arm", "fill pre-fault", "fill dip", "fill end",
			"recovery (min)", "eclipsed", "affected", "alive", "events"},
	}
	gate := &Table{
		Title:  "Control-arm gate: zero-magnitude chaos plumbing is a no-op (baseline vs stepped control)",
		Header: []string{"scenario", "events", "mon pings", "bytes out", "gate"},
	}
	pts := make([]ChaosPoint, len(outs))
	for i, out := range outs {
		pt := chaosPoint(out)
		pts[i] = pt
		if len(pt.MonFill) == 0 {
			gate.AddRow(pt.Scenario, u64(pt.Proto.Events), u64(pt.Proto.MonPings),
				u64(pt.Proto.BytesOut), "identical")
			continue
		}
		rec := "-"
		if pt.RecoverySeconds >= 0 {
			rec = f2(pt.RecoverySeconds / 60)
		}
		cover.AddRow(pt.Scenario, pt.Arm, f4(pt.FillPreFault), f4(pt.FillDip), f4(pt.FillEnd),
			rec, f4(pt.Eclipsed), f4(pt.Affected), itoa(pt.Proto.Alive), u64(pt.Proto.Events))
	}
	step := chaosStep(o)
	return []*Table{cover, gate}, chaosParams{
		Samples:     chaosSamples,
		StepSeconds: step.Seconds(),
		FaultStartS: (chaosFaultStart * step).Seconds(),
		FaultEndS:   (chaosFaultEnd * step).Seconds(),
	}, pts
}
