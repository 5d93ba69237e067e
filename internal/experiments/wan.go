package experiments

// The WAN experiment (beyond the paper): the paper validates AVMON on
// real wide-area deployments where link latencies are heterogeneous
// and heavy-tailed and loss is bursty — nothing like the constant-50ms
// lossless network the other generators assume. This sweep crosses
// the heterogeneous latency models (lognormal, zone matrix) with the
// loss regimes (independent, Gilbert-Elliott burst) and measures what
// the paper cares about: discovery time of new joiners and the
// coverage/cost of steady-state monitoring. All nine regimes run
// against one derived seed (common random numbers), so every reported
// delta isolates the network model, not seed noise — and each run is
// byte-identical serial or sharded, because the sharded engine's
// lookahead adapts to each latency model's MinLatency floor.

import (
	"fmt"
	"runtime"
	"time"

	"avmon"
)

// WanArtifactName is the machine-readable output of the wan experiment
// (written next to the tables by avmon-bench, checked into the repo
// like BENCH_scale.json).
const WanArtifactName = "BENCH_wan.json"

// wanDefaultN is the system size when Options.Ns is not set: large
// enough that zone structure and loss regimes separate, small enough
// that the 9-regime sweep stays minutes, not hours.
const wanDefaultN = 300

// WanPoint is one (latency model × loss regime) cell of the wan sweep
// as serialized into BENCH_wan.json. All fields except WallSeconds
// are deterministic functions of (Options, regime).
type WanPoint struct {
	Latency      string  `json:"latency"`
	Loss         string  `json:"loss"`
	MinLatencyMS float64 `json:"min_latency_ms"` // the model's floor = sharded lookahead

	N int `json:"n"`
	K int `json:"k"`

	ControlSize      int     `json:"control_size"`
	Discovered       int     `json:"discovered"`
	MeanDiscoveryMin float64 `json:"mean_discovery_minutes"`
	P93DiscoverySec  float64 `json:"p93_discovery_seconds"`

	PSFill            float64 `json:"ps_fill"`   // mean |PS|/K over alive nodes
	AckRatio          float64 `json:"ack_ratio"` // monitoring acks / pings
	BytesPerNodeSec   float64 `json:"bytes_out_per_node_per_second"`
	UselessPerNodeMin float64 `json:"useless_pings_per_node_per_minute"`
	Events            uint64  `json:"events"`

	WallSeconds float64 `json:"wall_seconds"`

	// Scheduler counters, present only when the sweep ran sharded
	// (avmon-bench -shards): executed windows per regime (deterministic;
	// barriers always equal them — the narrower the latency floor, the
	// more windows the same events cost), and per-shard busy wall-clock
	// (host metric). They live in the artifact only, so the rendered
	// tables stay byte-identical at any shard count.
	Barriers    uint64  `json:"barriers,omitempty"`
	Windows     uint64  `json:"windows,omitempty"`
	ShardBusyNS []int64 `json:"shard_busy_ns,omitempty"`
}

// wanArtifact is the BENCH_wan.json envelope.
type wanArtifact struct {
	Experiment string     `json:"experiment"`
	Seed       int64      `json:"seed"`
	Scale      float64    `json:"scale"`
	N          int        `json:"n"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	HostCores  int        `json:"host_cores,omitempty"`
	Host       HostStats  `json:"host"`
	Points     []WanPoint `json:"points"`
}

// wanRegime names one cell of the latency × loss cross product.
type wanRegime struct {
	latName  string
	latency  avmon.LatencyModel
	lossName string
	loss     avmon.LossModel
}

// wanRegimes builds the sweep: three latency models (the constant
// baseline, a heavy-tailed lognormal, a 3-zone matrix) crossed with
// three loss regimes (lossless, 1% independent, Gilbert-Elliott
// burst). Models are immutable, so sharing them across concurrently
// running sweep points is safe.
func wanRegimes() ([]wanRegime, error) {
	ms := time.Millisecond
	constant, err := avmon.NewConstantLatency(50 * ms)
	if err != nil {
		return nil, err
	}
	// Floor 5ms (continental propagation), median 5+60ms, heavy tail
	// capped at 2s: the shape of measured WAN RTT distributions. The
	// sharded lookahead shrinks from 50ms to the 5ms floor.
	lognormal, err := avmon.NewLognormalLatency(5*ms, 60*ms, 0.6, 2*time.Second)
	if err != nil {
		return nil, err
	}
	// Three zones (think continents): cheap intra-zone links, 80–220ms
	// inter-zone base latency, 20% jitter. Lookahead = 10ms.
	zones, err := avmon.NewZoneLatency([][]time.Duration{
		{10 * ms, 90 * ms, 160 * ms},
		{95 * ms, 15 * ms, 210 * ms},
		{150 * ms, 220 * ms, 12 * ms},
	}, 0.2)
	if err != nil {
		return nil, err
	}
	bernoulli, err := avmon.NewBernoulliLoss(0.01)
	if err != nil {
		return nil, err
	}
	// Bursts average 4 messages (exit 0.25) at 30% in-burst loss, with
	// a near-lossless good state: the same mean rate territory as the
	// 1% Bernoulli regime, but correlated.
	burst, err := avmon.NewGilbertElliottLoss(0.02, 0.25, 0.001, 0.3)
	if err != nil {
		return nil, err
	}
	lats := []struct {
		name string
		m    avmon.LatencyModel
	}{
		{"const-50ms", constant},
		{"lognormal", lognormal},
		{"zones-3", zones},
	}
	losses := []struct {
		name string
		m    avmon.LossModel
	}{
		{"lossless", nil},
		{"bernoulli-1%", bernoulli},
		{"ge-burst", burst},
	}
	var out []wanRegime
	for _, l := range lats {
		for _, p := range losses {
			out = append(out, wanRegime{latName: l.name, latency: l.m, lossName: p.name, loss: p.m})
		}
	}
	return out, nil
}

// wan sweeps heterogeneous WAN latency models against loss regimes on
// a static system and reports discovery time and monitoring coverage
// per regime, plus the BENCH_wan.json artifact. Every regime runs the
// same workload with the same derived seed (common random numbers);
// Options.Shards applies per run and never changes the results.
func wan(o Options) (*Result, error) {
	n := wanDefaultN
	if len(o.Ns) > 0 {
		n = o.Ns[0]
	}
	regimes, err := wanRegimes()
	if err != nil {
		return nil, fmt.Errorf("wan: %w", err)
	}
	scens := make([]scenario, len(regimes))
	for i, r := range regimes {
		scens[i] = scenario{
			kind:        modelSTAT,
			n:           n,
			warmup:      o.scaled(20*time.Minute, 5*time.Minute),
			measure:     o.scaled(2*time.Hour, 10*time.Minute),
			controlFrac: 0.1,
			latModel:    r.latency,
			lossModel:   r.loss,
			label:       fmt.Sprintf("wan %s/%s", r.latName, r.lossName),
		}
	}
	// One shared seed group: every regime faces the identical
	// population and control-group draw, so regime deltas are paired
	// comparisons.
	outs, err := runAllPaired(o, scens, oneRealization)
	if err != nil {
		return nil, err
	}
	pts := make([]WanPoint, len(outs))
	for i, out := range outs {
		pts[i] = wanPointMetrics(regimes[i], out)
	}

	disc := &Table{
		Title: "WAN regimes: discovery of new joiners (paired seeds)",
		Header: []string{"latency", "loss", "floor (ms)", "control", "discovered",
			"mean disc (min)", "p93 disc (s)"},
	}
	mon := &Table{
		Title: "WAN regimes: monitoring coverage and cost",
		Header: []string{"latency", "loss", "|PS|/K", "ack ratio", "B/s/node",
			"useless/node/min", "events"},
	}
	for _, p := range pts {
		disc.AddRow(p.Latency, p.Loss, f2(p.MinLatencyMS), itoa(p.ControlSize),
			itoa(p.Discovered), f2(p.MeanDiscoveryMin), f2(p.P93DiscoverySec))
		mon.AddRow(p.Latency, p.Loss, f2(p.PSFill), f4(p.AckRatio),
			f2(p.BytesPerNodeSec), f4(p.UselessPerNodeMin), fmt.Sprintf("%d", p.Events))
	}

	artifacts, err := artifact("wan", WanArtifactName, wanArtifact{
		Experiment: "wan",
		Seed:       o.Seed,
		Scale:      o.Scale,
		N:          n,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		HostCores:  runtime.NumCPU(),
		Host:       collectHostStats(),
		Points:     pts,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:        "wan",
		Title:     "Heterogeneous WAN latency and loss vs discovery and monitoring coverage",
		Tables:    []*Table{disc, mon},
		Artifacts: artifacts,
	}, nil
}

// wanPointMetrics extracts one regime's metrics from a finished run.
func wanPointMetrics(r wanRegime, out *outcome) WanPoint {
	c := out.c
	p := WanPoint{
		Latency:      r.latName,
		Loss:         r.lossName,
		MinLatencyMS: float64(r.latency.MinLatency()) / float64(time.Millisecond),
		N:            out.s.n,
		K:            c.K(),
		Events:       c.Steps(),
		WallSeconds:  out.wall.Seconds(),
	}
	if st, ok := c.SchedStats(); ok {
		p.Barriers = st.Barriers
		p.Windows = st.Windows
		for _, sh := range st.PerShard {
			p.ShardBusyNS = append(p.ShardBusyNS, sh.BusyNS)
		}
	}

	d := out.discovery()
	p.ControlSize, p.Discovered = d.control, d.discovered
	p.MeanDiscoveryMin, p.P93DiscoverySec = d.meanMin, d.p93Sec

	alive := out.aliveIndexes()
	var pings, acks uint64
	for _, idx := range alive {
		st := c.Stats(idx)
		pings += st.MonPingsSent
		acks += st.MonAcks
	}
	p.PSFill = welford(out.psFill(alive)).Mean()
	p.BytesPerNodeSec = welford(out.bytesOutPer(out.s.measure.Seconds(), alive)).Mean()
	p.UselessPerNodeMin = welford(out.uselessPerMinute(alive)).Mean()
	if pings > 0 {
		p.AckRatio = float64(acks) / float64(pings)
	}
	return p
}
