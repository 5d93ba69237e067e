package experiments

// The realnet experiment (beyond the paper): every other generator in
// this package predicts AVMON's behavior inside the discrete-event
// simulator. This one checks those predictions against reality — it
// boots hundreds of real avmon.Service instances (real goroutines,
// real codec bytes, real wall-clock tickers) over two transports: the
// in-process memnet loopback (simnet latency/loss models applied in
// wall time) and genuine 127.0.0.1 UDP sockets. The same regime is
// then run through the simulator, and the experiment FAILS unless the
// real deployment's discovery time, monitoring coverage, and per-node
// bandwidth land within the stated tolerances of the sim's
// predictions. BENCH_realnet.json records both arms and the
// tolerances; unlike the other BENCH artifacts it is not
// byte-deterministic, because half of it is measured wall-clock
// behavior.

import (
	"errors"
	"fmt"
	"math/rand"
	"syscall"
	"time"

	"avmon"
	"avmon/internal/ids"
	"avmon/internal/memnet"
	"avmon/internal/netstack"
	"avmon/internal/observer"
	"avmon/internal/simnet"
	"avmon/internal/stats"
)

// RealnetArtifactName is the machine-readable output of the realnet
// experiment (written next to the tables by avmon-bench, checked into
// the repo like BENCH_wan.json).
const RealnetArtifactName = "BENCH_realnet.json"

// realnetDefaultN is the deployment size when Options.Ns is unset:
// large enough to be a real many-node system (and satisfy the ≥200
// harness bar), small enough that two full wall-clock arms stay well
// under a minute.
const realnetDefaultN = 240

// realnetK and realnetCVS pin the protocol parameters for both arms
// explicitly so the sim predicts exactly the deployed configuration.
const (
	realnetK   = 8
	realnetCVS = 10
)

// RealnetTolerances states how far reality may drift from the sim's
// prediction before the experiment fails. Wall-clock scheduling noise,
// boot staggering, and scrape-resolution quantization make the two
// arms statistically — not numerically — comparable, hence ratio
// bands rather than equality.
type RealnetTolerances struct {
	// MinDiscoveredFrac is the floor on the fraction of control
	// joiners that discover a monitor, in both arms.
	MinDiscoveredFrac float64 `json:"min_discovered_frac"`
	// DiscoveryRatioMax bounds real/sim mean discovery time (in
	// protocol periods) from both sides: the ratio must lie within
	// [1/max, max] after adding DiscoverySlackPeriods of absolute
	// slack (scrape resolution + boot stagger).
	DiscoveryRatioMax     float64 `json:"discovery_ratio_max"`
	DiscoverySlackPeriods float64 `json:"discovery_slack_periods"`
	// CoverageAbsMax bounds |real − sim| mean |PS|/K.
	CoverageAbsMax float64 `json:"coverage_abs_max"`
	// BandwidthRatioMin/Max bound real/sim bytes per node per period.
	BandwidthRatioMin float64 `json:"bandwidth_ratio_min"`
	BandwidthRatioMax float64 `json:"bandwidth_ratio_max"`
}

// realnetTolerances are the stated gates. They are deliberately loose
// — a factor of ~2.5 on timing, a factor of 3 on bandwidth — because
// they must hold on loaded CI machines; what they still catch is the
// protocol behaving *qualitatively* differently over a real network
// than the simulator claims (discovery stalling, coverage collapsing,
// traffic blowing up).
var realnetTolerances = RealnetTolerances{
	MinDiscoveredFrac:     0.8,
	DiscoveryRatioMax:     2.5,
	DiscoverySlackPeriods: 2,
	CoverageAbsMax:        0.25,
	BandwidthRatioMin:     1.0 / 3.0,
	BandwidthRatioMax:     3.0,
}

// RealnetPoint is one transport mode's real-vs-sim comparison as
// serialized into BENCH_realnet.json.
type RealnetPoint struct {
	Mode        string  `json:"mode"` // "memnet" or "udp"
	N           int     `json:"n"`
	K           int     `json:"k"`
	ControlSize int     `json:"control_size"`
	PeriodMS    float64 `json:"period_ms"` // real-arm protocol period

	// Real arm (measured wall-clock behavior).
	Discovered             int     `json:"discovered"`
	MeanDiscoveryPeriods   float64 `json:"mean_discovery_periods"`
	Coverage               float64 `json:"coverage"` // mean |PS|/K
	BytesPerNodePeriod     float64 `json:"bytes_per_node_period"`
	DatagramsPerNodePeriod float64 `json:"datagrams_per_node_period"`
	DroppedDatagrams       uint64  `json:"dropped_datagrams"`
	InboxOverflows         uint64  `json:"inbox_overflows,omitempty"`

	// Sim arm (the prediction for the same N/K/CVS regime).
	SimDiscovered           int     `json:"sim_discovered"`
	SimControlSize          int     `json:"sim_control_size"`
	SimMeanDiscoveryPeriods float64 `json:"sim_mean_discovery_periods"`
	SimCoverage             float64 `json:"sim_coverage"`
	SimBytesPerNodePeriod   float64 `json:"sim_bytes_per_node_period"`

	// Gate evaluation.
	DiscoveryRatio  float64 `json:"discovery_ratio"`
	CoverageAbsDiff float64 `json:"coverage_abs_diff"`
	BandwidthRatio  float64 `json:"bandwidth_ratio"`
	GatePass        bool    `json:"gate_pass"`
	GateDetail      string  `json:"gate_detail,omitempty"`

	WallSeconds float64 `json:"wall_seconds"`
}

// realnetOpts are the per-node protocol knobs shared by both arms
// (periods differ: the sim keeps its 1-virtual-minute default, the
// real arm compresses the period to wall-clock milliseconds — all
// comparisons are period-normalized).
func realnetOpts(period time.Duration) avmon.NodeOptions {
	return avmon.NodeOptions{
		K:             realnetK,
		CVS:           realnetCVS,
		Period:        period,
		MonitorPeriod: period,
		Hash:          avmon.HashFast,
	}
}

// runRealnetArm boots p.N real services over the transports produced
// by listen, measures discovery of the late-joining control group and
// steady-state coverage/bandwidth into p's real-arm fields, and tears
// everything down. netStats is called at the end for network-level drop
// counters.
func runRealnetArm(p *RealnetPoint, period time.Duration, seed int64,
	listen func(i int) (id ids.ID, tr avmon.Transport, traffic observer.Traffic, err error),
	netStats func() (dropped, overflows uint64)) error {

	n := p.N
	ctl := n / 10
	if ctl < 1 {
		ctl = 1
	}
	base := n - ctl
	rng := rand.New(rand.NewSource(seed))

	type inst struct {
		svc     *avmon.Service
		traffic observer.Traffic
	}
	instances := make([]inst, 0, n)
	addrs := make([]string, 0, n)
	defer func() {
		for _, in := range instances {
			in.svc.Stop()
		}
	}()

	boot := func(i int, bootstrap string) error {
		id, tr, traffic, err := listen(i)
		if err != nil {
			return err
		}
		svc, err := avmon.NewService(avmon.ServiceConfig{
			Addr:      id.String(),
			Bootstrap: bootstrap,
			N:         n,
			Options:   realnetOpts(period),
			Seed:      seed + int64(i) + 1,
			Transport: tr,
		})
		if err != nil {
			_ = tr.Close() // NewService failed: the transport is still ours
			return fmt.Errorf("realnet: NewService %d: %w", i, err)
		}
		if err := svc.Start(); err != nil {
			return fmt.Errorf("realnet: Start %d: %w", i, err)
		}
		instances = append(instances, inst{svc: svc, traffic: traffic})
		addrs = append(addrs, id.String())
		return nil
	}

	// Boot the base population, bootstrapped in a binary tree so join
	// load spreads instead of hammering node 0.
	for i := 0; i < base; i++ {
		bs := ""
		if i > 0 {
			bs = addrs[i/2]
		}
		if err := boot(i, bs); err != nil {
			return err
		}
	}

	// Warm up: let the coarse views mix before the control group joins.
	warmupDeadline := time.Now().Add(30 * period)
	for time.Now().Before(warmupDeadline) {
		ready := 0
		for _, in := range instances {
			if ps, _, _, _ := in.svc.Stats(); ps > 0 {
				ready++
			}
		}
		if ready >= base*8/10 {
			break
		}
		time.Sleep(period / 2)
	}

	// Enroll the control joiners and watch their discovery through the
	// observer side channel (scrape resolution: half a period).
	obs := observer.New(period / 2)
	for i := base; i < n; i++ {
		if err := boot(i, addrs[rng.Intn(base)]); err != nil {
			return err
		}
		in := instances[len(instances)-1]
		obs.Add(observer.Target{Node: in.svc, Traffic: in.traffic})
	}
	obs.Start()
	defer obs.Stop()

	discoveryDeadline := time.Now().Add(40 * period)
	for time.Now().Before(discoveryDeadline) {
		found := 0
		for i := 0; i < ctl; i++ {
			if _, ok := obs.DiscoveryTime(i); ok {
				found++
			}
		}
		if found == ctl {
			break
		}
		time.Sleep(period / 2)
	}

	p.ControlSize = ctl
	var disc stats.Welford
	for i := 0; i < ctl; i++ {
		if d, ok := obs.DiscoveryTime(i); ok {
			p.Discovered++
			disc.Add(float64(d) / float64(period))
		}
	}
	p.MeanDiscoveryPeriods = disc.Mean()

	// Steady-state measurement window: snapshot traffic, wait, diff.
	type snap struct{ bytes, datagrams uint64 }
	before := make([]snap, len(instances))
	for i, in := range instances {
		before[i] = snap{in.traffic.WireBytesSent(), in.traffic.DatagramsSent()}
	}
	const measurePeriods = 15
	time.Sleep(measurePeriods * period)

	var fill, bw, dg stats.Welford
	for i, in := range instances {
		ps, _, _, _ := in.svc.Stats()
		fill.Add(float64(ps) / float64(realnetK))
		bw.Add(float64(in.traffic.WireBytesSent()-before[i].bytes) / measurePeriods)
		dg.Add(float64(in.traffic.DatagramsSent()-before[i].datagrams) / measurePeriods)
	}
	p.Coverage = fill.Mean()
	p.BytesPerNodePeriod = bw.Mean()
	p.DatagramsPerNodePeriod = dg.Mean()
	p.DroppedDatagrams, p.InboxOverflows = netStats()
	return nil
}

// realnetSim runs the simulator's prediction for the same regime: a
// static system of n nodes with 10% late joiners, default (1-minute)
// periods, measured over the same number of periods the real arm uses.
func realnetSim(n int, seed int64) (*RealnetPoint, error) {
	out, err := run(scenario{
		kind:        modelSTAT,
		n:           n,
		opts:        realnetOpts(0), // 0 = the sim's 1-minute default
		warmup:      10 * time.Minute,
		measure:     15 * time.Minute,
		controlFrac: 0.1,
		seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	d := out.discovery()
	alive := out.aliveIndexes()
	return &RealnetPoint{
		SimControlSize: d.control,
		SimDiscovered:  d.discovered,
		// Period = 1 virtual minute, so discovery minutes ARE periods.
		SimMeanDiscoveryPeriods: d.meanMin,
		SimCoverage:             welford(out.psFill(alive)).Mean(),
		SimBytesPerNodePeriod:   welford(out.bytesOutPer(out.s.measure.Minutes(), alive)).Mean(),
	}, nil
}

// realnetGate evaluates one mode's real arm against the sim
// prediction, filling the comparison fields and the pass/fail verdict.
func realnetGate(p *RealnetPoint, tol RealnetTolerances) {
	detail := ""
	fail := func(format string, args ...interface{}) {
		if detail != "" {
			detail += "; "
		}
		detail += fmt.Sprintf(format, args...)
	}

	if frac := float64(p.Discovered) / float64(p.ControlSize); frac < tol.MinDiscoveredFrac {
		fail("real discovered %d/%d < %.0f%%", p.Discovered, p.ControlSize, tol.MinDiscoveredFrac*100)
	}
	if frac := float64(p.SimDiscovered) / float64(p.SimControlSize); frac < tol.MinDiscoveredFrac {
		fail("sim discovered %d/%d < %.0f%%", p.SimDiscovered, p.SimControlSize, tol.MinDiscoveredFrac*100)
	}
	if p.SimMeanDiscoveryPeriods > 0 {
		p.DiscoveryRatio = p.MeanDiscoveryPeriods / p.SimMeanDiscoveryPeriods
	}
	// Two-sided timing band with absolute slack for scrape resolution.
	slack := tol.DiscoverySlackPeriods
	if p.MeanDiscoveryPeriods > p.SimMeanDiscoveryPeriods*tol.DiscoveryRatioMax+slack {
		fail("discovery %.2f periods > sim %.2f × %.1f + %.0f", p.MeanDiscoveryPeriods,
			p.SimMeanDiscoveryPeriods, tol.DiscoveryRatioMax, slack)
	}
	if p.MeanDiscoveryPeriods < p.SimMeanDiscoveryPeriods/tol.DiscoveryRatioMax-slack {
		fail("discovery %.2f periods < sim %.2f ÷ %.1f − %.0f (too fast to be the same protocol)",
			p.MeanDiscoveryPeriods, p.SimMeanDiscoveryPeriods, tol.DiscoveryRatioMax, slack)
	}
	p.CoverageAbsDiff = p.Coverage - p.SimCoverage
	if p.CoverageAbsDiff < 0 {
		p.CoverageAbsDiff = -p.CoverageAbsDiff
	}
	if p.CoverageAbsDiff > tol.CoverageAbsMax {
		fail("coverage |%.2f − %.2f| > %.2f", p.Coverage, p.SimCoverage, tol.CoverageAbsMax)
	}
	if p.SimBytesPerNodePeriod > 0 {
		p.BandwidthRatio = p.BytesPerNodePeriod / p.SimBytesPerNodePeriod
	}
	if p.BandwidthRatio < tol.BandwidthRatioMin || p.BandwidthRatio > tol.BandwidthRatioMax {
		fail("bandwidth ratio %.2f outside [%.2f, %.2f]", p.BandwidthRatio,
			tol.BandwidthRatioMin, tol.BandwidthRatioMax)
	}
	p.GatePass = detail == ""
	p.GateDetail = detail
}

// realnetPortAttempts is how many port blocks the UDP arm tries.
const realnetPortAttempts = 5

// udpPortBase is the first port of the UDP arm's block on the given
// attempt: one of 17 blocks 2000 ports apart from 21000, picked by the
// seed, then 2048 ports on per retry, wrapping inside [20000, 60000).
// The derived seed is reduced unsigned, so no seed picks a block below
// 21000.
func udpPortBase(seed int64, attempt int) int {
	base := 21000 + int(uint64(deriveSeed(seed, 2))%17)*2000
	for ; attempt > 0; attempt-- {
		base = (base+2048-20000)%40000 + 20000
	}
	return base
}

// realnet boots the real deployment arms (memnet loopback, then
// 127.0.0.1 UDP), runs the matching simulation, and fails unless
// reality lands within the stated tolerances of the prediction.
// Options.Ns[0] overrides the deployment size; Options.Scale scales
// the real-arm protocol period (floor 60ms).
func realnet(o Options) (*Result, error) {
	n := o.firstN(realnetDefaultN)
	if n < 20 {
		return nil, fmt.Errorf("%w: N must be ≥ 20, got %d", ErrInvalidOptions, n)
	}
	period := o.scaled(200*time.Millisecond, 60*time.Millisecond)

	progress := func(done int, label string) {
		if o.Progress != nil {
			o.Progress(done, 3, label)
		}
	}

	// The prediction arm runs once; both real modes compare against it.
	sim, err := realnetSim(n, deriveSeed(o.Seed, 0))
	if err != nil {
		return nil, fmt.Errorf("realnet: sim arm: %w", err)
	}
	progress(1, "realnet sim prediction")

	pts := make([]RealnetPoint, 0, 2)
	runMode := func(mode string, done int,
		listen func(i int) (ids.ID, avmon.Transport, observer.Traffic, error),
		netStats func() (uint64, uint64)) error {
		start := time.Now()
		p := *sim
		p.Mode, p.N, p.K = mode, n, realnetK
		p.PeriodMS = float64(period) / float64(time.Millisecond)
		if err := runRealnetArm(&p, period, deriveSeed(o.Seed, modeSeedIndex(mode)), listen, netStats); err != nil {
			return fmt.Errorf("realnet: %s arm: %w", mode, err)
		}
		p.WallSeconds = time.Since(start).Seconds()
		realnetGate(&p, realnetTolerances)
		pts = append(pts, p)
		progress(done, "realnet "+mode)
		return nil
	}

	// Mode 1: memnet loopback with a 2ms constant modeled latency.
	memNet := memnet.New(memnet.Config{Latency: mustModel(simnet.NewConstantLatency(2 * time.Millisecond)),
		Seed: deriveSeed(o.Seed, 1), InboxDepth: 8192})
	memTransports := make(map[int]*memnet.Transport)
	err = runMode("memnet", 2, func(i int) (ids.ID, avmon.Transport, observer.Traffic, error) {
		id := ids.Sim(i + 1)
		tr, err := memNet.Listen(id)
		if err != nil {
			return ids.None, nil, nil, err
		}
		memTransports[i] = tr
		return id, tr, tr, nil
	}, func() (uint64, uint64) {
		var dropped uint64
		for _, tr := range memTransports {
			dropped += tr.DroppedDatagrams()
		}
		st := memNet.Stats()
		return dropped, st.InboxOverflows
	})
	memNet.Close()
	if err != nil {
		return nil, err
	}

	// Mode 2: real UDP sockets on 127.0.0.1. The port block derives
	// from the seed; a block with an occupied port is retried.
	udpTransports := make(map[int]*netstack.UDPTransport)
	var udpErr error
	for attempt := 0; attempt < realnetPortAttempts; attempt++ {
		portBase := udpPortBase(o.Seed, attempt)
		udpErr = runMode("udp", 3, func(i int) (ids.ID, avmon.Transport, observer.Traffic, error) {
			id := ids.MustParse(fmt.Sprintf("127.0.0.1:%d", portBase+i))
			tr, err := netstack.Listen(id)
			if err != nil {
				return ids.None, nil, nil, err
			}
			udpTransports[i] = tr
			return id, tr, tr, nil
		}, func() (uint64, uint64) {
			var dropped uint64
			for _, tr := range udpTransports {
				dropped += tr.DroppedDatagrams()
			}
			return dropped, 0
		})
		// An occupied port is the only UDP-arm error worth retrying.
		if !errors.Is(udpErr, syscall.EADDRINUSE) {
			break
		}
		udpTransports = make(map[int]*netstack.UDPTransport)
	}
	if udpErr != nil {
		return nil, udpErr
	}

	cmp := &Table{
		Title: "Realnet vs sim: real Service deployments against the simulator's prediction",
		Header: []string{"mode", "n", "period", "disc (real/sim periods)", "coverage (real/sim)",
			"B/node/period (real/sim)", "gate"},
	}
	for _, p := range pts {
		gate := "PASS"
		if !p.GatePass {
			gate = "FAIL: " + p.GateDetail
		}
		cmp.AddRow(p.Mode, itoa(p.N), fmt.Sprintf("%.0fms", p.PeriodMS),
			fmt.Sprintf("%.2f / %.2f", p.MeanDiscoveryPeriods, p.SimMeanDiscoveryPeriods),
			fmt.Sprintf("%.2f / %.2f", p.Coverage, p.SimCoverage),
			fmt.Sprintf("%.1f / %.1f", p.BytesPerNodePeriod, p.SimBytesPerNodePeriod),
			gate)
	}

	artifacts, err := artifact(o, "realnet", RealnetArtifactName, []int{n}, realnetTolerances, pts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:        "realnet",
		Title:     "Real multi-node deployments (memnet + UDP) vs simulator predictions",
		Tables:    []*Table{cmp},
		Artifacts: artifacts,
	}
	for _, p := range pts {
		if !p.GatePass {
			return nil, fmt.Errorf("realnet: %s arm outside tolerances: %s\n%s",
				p.Mode, p.GateDetail, res.String())
		}
	}
	return res, nil
}

// modeSeedIndex derives a stable per-mode seed index from the mode
// name, so the two arms never share randomness.
func modeSeedIndex(mode string) int {
	sum := 0
	for _, r := range mode {
		sum += int(r)
	}
	return sum
}
