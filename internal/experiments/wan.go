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
// byte-identical at any shard count, because the engine's lookahead
// adapts to each latency model's MinLatency floor.

import (
	"strings"
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
// as serialized into BENCH_wan.json. All fields except WallSeconds and
// ShardBusyNS are deterministic functions of (Options, regime).
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
	// the narrower the latency floor, the more windows the same events
	// cost), and per-shard busy wall-clock (host metric). They live in
	// the artifact only, so the rendered tables stay byte-identical at
	// any shard count.
	Windows     uint64  `json:"windows,omitempty"`
	ShardBusyNS []int64 `json:"shard_busy_ns,omitempty"`
}

// mustModel unwraps a network-model constructor called with constants.
func mustModel[M any](m M, err error) M {
	if err != nil {
		panic(err)
	}
	return m
}

// wanScens builds the sweep: three latency models (the constant
// baseline, a heavy-tailed lognormal, a 3-zone matrix) crossed with
// three loss regimes (lossless, 1% independent, Gilbert-Elliott
// burst), each labelled "latency/loss", all on the same static
// workload at Options.Ns[0] (default 300). Models are immutable, so
// sharing them across concurrently running points is safe.
func wanScens(o Options) []scenario {
	ms := time.Millisecond
	lats := []struct {
		name string
		m    avmon.LatencyModel
	}{
		{"const-50ms", mustModel(avmon.NewConstantLatency(50 * ms))},
		// Floor 5ms (continental propagation), median 5+60ms, heavy tail
		// capped at 2s: the shape of measured WAN RTT distributions. The
		// sharded lookahead shrinks from 50ms to the 5ms floor.
		{"lognormal", mustModel(avmon.NewLognormalLatency(5*ms, 60*ms, 0.6, 2*time.Second))},
		// Three zones (think continents): cheap intra-zone links, 80–220ms
		// inter-zone base latency, 20% jitter. Lookahead = 10ms.
		{"zones-3", mustModel(avmon.NewZoneLatency([][]time.Duration{
			{10 * ms, 90 * ms, 160 * ms},
			{95 * ms, 15 * ms, 210 * ms},
			{150 * ms, 220 * ms, 12 * ms},
		}, 0.2))},
	}
	losses := []struct {
		name string
		m    avmon.LossModel
	}{
		{"lossless", nil},
		{"bernoulli-1%", mustModel(avmon.NewBernoulliLoss(0.01))},
		// Bursts average 4 messages (exit 0.25) at 30% in-burst loss, with
		// a near-lossless good state: the same mean rate territory as the
		// 1% Bernoulli regime, but correlated.
		{"ge-burst", mustModel(avmon.NewGilbertElliottLoss(0.02, 0.25, 0.001, 0.3))},
	}
	var scens []scenario
	for _, l := range lats {
		for _, p := range losses {
			scens = append(scens, scenario{
				kind:        modelSTAT,
				n:           o.firstN(wanDefaultN),
				warmup:      o.scaled(20*time.Minute, 5*time.Minute),
				measure:     o.scaled(2*time.Hour, 10*time.Minute),
				controlFrac: 0.1,
				latModel:    l.m,
				lossModel:   p.m,
				label:       l.name + "/" + p.name,
			})
		}
	}
	return scens
}

// wanReport renders discovery time and monitoring coverage per regime;
// the regimes are BENCH_wan.json's points. Every regime ran the same
// workload on the same derived seed (common random numbers), so every
// delta isolates the network model; Options.Shards applies per run and
// never changes the results.
func wanReport(_ Options, outs []*outcome) ([]*Table, any, any) {
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
	pts := make([]WanPoint, len(outs))
	for i, out := range outs {
		p := wanPoint(out)
		pts[i] = p
		disc.AddRow(p.Latency, p.Loss, f2(p.MinLatencyMS), itoa(p.ControlSize),
			itoa(p.Discovered), f2(p.MeanDiscoveryMin), f2(p.P93DiscoverySec))
		mon.AddRow(p.Latency, p.Loss, f2(p.PSFill), f4(p.AckRatio),
			f2(p.BytesPerNodeSec), f4(p.UselessPerNodeMin), u64(p.Events))
	}
	return []*Table{disc, mon}, nil, pts
}

// wanPoint extracts one regime's metrics from a finished run.
func wanPoint(out *outcome) WanPoint {
	c := out.c
	p := WanPoint{
		MinLatencyMS: float64(out.s.latModel.MinLatency()) / float64(time.Millisecond),
		N:            out.s.n,
		K:            c.K(),
		Events:       c.Steps(),
		WallSeconds:  out.wall.Seconds(),
	}
	p.Latency, p.Loss, _ = strings.Cut(out.s.label, "/")
	p.Windows, p.ShardBusyNS = shardCost(c)

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
