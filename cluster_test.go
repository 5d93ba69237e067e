package avmon

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"avmon/internal/core"
	"avmon/internal/sim"
	"avmon/internal/simnet"
)

func statCluster(t *testing.T, n int, seed int64, opts NodeOptions) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{N: n, Seed: seed, Options: opts}, NewSTATModel(n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterSTATDiscoversMonitors(t *testing.T) {
	c := statCluster(t, 100, 1, NodeOptions{})
	c.Run(20 * time.Minute)
	// E[D] ≈ N/cvs² < 1 period here, so 20 periods is generous: the
	// overwhelming majority of nodes must have found ≥1 monitor.
	found, nodes := 0, 0
	for i := 0; i < c.Size(); i++ {
		nodes++
		if len(c.MonitorsOf(i)) > 0 {
			found++
		}
	}
	if nodes != 100 {
		t.Fatalf("cluster has %d nodes, want 100", nodes)
	}
	if found < 95 {
		t.Errorf("%d of %d nodes discovered a monitor in 20 periods", found, nodes)
	}
}

func TestClusterDiscoveredMonitorsAreGenuine(t *testing.T) {
	// Verifiability in practice: every PS entry must satisfy the
	// consistency condition, and so must every TS entry.
	c := statCluster(t, 80, 2, NodeOptions{})
	c.Run(30 * time.Minute)
	scheme := c.Scheme()
	for i := 0; i < c.Size(); i++ {
		self := c.IDOf(i)
		for _, mon := range c.MonitorsOf(i) {
			if !scheme.Related(mon, self) {
				t.Fatalf("node %d has bogus monitor %v", i, mon)
			}
		}
		for _, tgt := range c.TargetsOf(i) {
			if !scheme.Related(self, tgt) {
				t.Fatalf("node %d has bogus target %v", i, tgt)
			}
		}
	}
}

func TestClusterDiscoveryTimeWithinBound(t *testing.T) {
	// Average first-monitor discovery time must be within a small
	// constant of the analytical bound E[D] (Section 4.1).
	c := statCluster(t, 150, 3, NodeOptions{})
	c.Run(10 * time.Minute) // warm up
	control := c.EnrollControl(15)
	c.Run(60 * time.Minute)
	period := time.Minute
	bound := ExpectedDiscoveryTime(c.CVS(), 150) // in periods
	var sum time.Duration
	count := 0
	for _, idx := range control {
		dts := c.Stats(idx).DiscoveryTimes
		if len(dts) == 0 {
			continue
		}
		sum += dts[0]
		count++
	}
	if count < 12 {
		t.Fatalf("only %d of 15 control nodes discovered a monitor", count)
	}
	avg := sum / time.Duration(count)
	limit := time.Duration(4*bound*float64(period)) + 2*period
	if avg > limit {
		t.Errorf("average discovery %v exceeds 4×E[D] = %v", avg, limit)
	}
}

func TestClusterEventualPSSize(t *testing.T) {
	// With K = log2(N) the expected PS size is ≈ K; after a long run,
	// the population average must be in that ballpark.
	c := statCluster(t, 60, 4, NodeOptions{})
	c.Run(3 * time.Hour)
	total := 0
	for i := 0; i < c.Size(); i++ {
		total += c.Stats(i).PSSize
	}
	avg := float64(total) / float64(c.Size())
	k := float64(c.K())
	if avg < k*0.5 || avg > k*1.6 {
		t.Errorf("average |PS| = %.2f, want ≈ K = %v", avg, k)
	}
}

func TestTheorem2DeadNodeLeavesAllCoarseViews(t *testing.T) {
	// A node that leaves for good is eventually deleted from every
	// coarse view (w.h.p. within cvs·log(N) periods).
	n := 60
	model, err := NewSYNTHBDModel(n, 0.001, 0.0001) // nearly static
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{N: n, Seed: 5}, model)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(30 * time.Minute)
	victim := 7
	c.Death(victim)
	dead := c.IDOf(victim)
	// cvs ≈ 11 for N=60 → cvs·log N ≈ 45 periods; run 120 to be safe.
	c.Run(120 * time.Minute)
	holders := 0
	for i := 0; i < c.Size(); i++ {
		if i == victim {
			continue
		}
		m := c.memberAt(i)
		if m == nil || !m.ep.Registered() {
			continue
		}
		for _, id := range m.node.CV() {
			if id == dead {
				holders++
			}
		}
	}
	if holders != 0 {
		t.Errorf("dead node still referenced by %d coarse views after 120 periods", holders)
	}
}

func TestClusterConsistencyUnderChurn(t *testing.T) {
	// The monitoring relation never changes under churn: a node's
	// discovered monitors remain valid monitors after arbitrary
	// join/leave activity (contrast with the DHT baseline's
	// ConsistencyDamage).
	model, err := NewSYNTHModel(80, 0.5) // heavy churn
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{N: 80, Seed: 6}, model)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(45 * time.Minute)
	before := make(map[int][]ID)
	for i := 0; i < c.Size(); i++ {
		before[i] = c.MonitorsOf(i)
	}
	c.Run(45 * time.Minute) // more churn
	for i, prev := range before {
		nowSet := make(map[ID]bool)
		for _, id := range c.MonitorsOf(i) {
			nowSet[id] = true
		}
		for _, id := range prev {
			if !nowSet[id] {
				t.Fatalf("node %d lost monitor %v due to churn (consistency violated)", i, id)
			}
		}
	}
}

func TestClusterSYNTHBDSmoke(t *testing.T) {
	model, err := NewSYNTHBDModel(100, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{N: 100, Seed: 7}, model)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Hour)
	if c.AliveCount() < 60 || c.AliveCount() > 140 {
		t.Errorf("alive = %d, want ≈ 100", c.AliveCount())
	}
	found := 0
	for i := 0; i < c.Size(); i++ {
		if c.Stats(i).PSSize > 0 {
			found++
		}
	}
	if found < c.Size()/2 {
		t.Errorf("only %d of %d nodes discovered monitors under SYNTH-BD", found, c.Size())
	}
}

func TestClusterTraceModels(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (ChurnModel, error)
	}{
		{"PL", func() (ChurnModel, error) { return NewPlanetLabModel(40, 2*time.Hour, 8) }},
		{"OV", func() (ChurnModel, error) { return NewOvernetModel(40, 2*time.Hour, 9) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCluster(ClusterConfig{Seed: 10}, model)
			if err != nil {
				t.Fatal(err)
			}
			c.Run(90 * time.Minute)
			if c.AliveCount() == 0 {
				t.Fatal("no nodes alive under trace model")
			}
			found := 0
			for i := 0; i < c.Size(); i++ {
				if c.Stats(i).PSSize > 0 {
					found++
				}
			}
			if found == 0 {
				t.Error("no monitors discovered under trace model")
			}
		})
	}
}

func TestClusterMemoryBounded(t *testing.T) {
	c := statCluster(t, 100, 11, NodeOptions{})
	c.Run(2 * time.Hour)
	limit := c.CVS() + 6*c.K() // generous: cvs + O(K log K) tail
	for i := 0; i < c.Size(); i++ {
		if got := c.Stats(i).MemoryEntries; got > limit {
			t.Errorf("node %d memory entries = %d, exceeds %d", i, got, limit)
		}
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() (uint64, int) {
		c := statCluster(t, 50, 42, NodeOptions{})
		c.Run(30 * time.Minute)
		var checks uint64
		psTotal := 0
		for i := 0; i < c.Size(); i++ {
			s := c.Stats(i)
			checks += s.HashChecks
			psTotal += s.PSSize
		}
		return checks, psTotal
	}
	c1, p1 := run()
	c2, p2 := run()
	if c1 != c2 || p1 != p2 {
		t.Errorf("non-deterministic cluster: (%d,%d) vs (%d,%d)", c1, p1, c2, p2)
	}
}

// updateGolden rewrites the golden files under testdata/ from this
// run instead of comparing against them.
var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// fingerprintRun runs the simulation every row of
// TestShardedClusterMatchesSerial is fingerprinted after: 25 minutes,
// five control joiners enrolled, 20 minutes more.
func fingerprintRun(t *testing.T, cfg ClusterConfig, mk func() (ChurnModel, error)) (*Cluster, []int) {
	t.Helper()
	model, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(25 * time.Minute)
	control := c.EnrollControl(5)
	c.Run(20 * time.Minute)
	return c, control
}

// stateText is WriteState as a string, for firstDiff.
func stateText(t *testing.T, c *Cluster) string {
	t.Helper()
	var sb strings.Builder
	if err := c.WriteState(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// must unwraps a network-model constructor in tests, whose arguments
// are constants the constructor accepts.
func must[M any](m M, err error) M {
	if err != nil {
		panic(err)
	}
	return m
}

// TestShardedClusterMatchesSerial is the engine's contract at the
// cluster level: for one seed, a sharded run is byte-identical to the
// serial run at any shard count — including under churn, message loss,
// forgetful pinging, collusion, zone outages, storms and the
// heterogeneous WAN network models (lognormal and zone-matrix
// latency with adaptive lookahead, Gilbert-Elliott burst loss), which
// together exercise every random stream and lifecycle path.
func TestShardedClusterMatchesSerial(t *testing.T) {
	// Each row's serial digest is pinned: a change that moves one moved
	// the protocol (or the simulator under it), and says so by rerunning
	// with -update.
	const goldenPath = "testdata/cluster_fingerprints.golden"
	pinned, _ := os.ReadFile(goldenPath)
	var golden strings.Builder
	for _, tc := range []struct {
		name string
		cfg  ClusterConfig
		mk   func() (ChurnModel, error)
	}{
		{
			name: "STAT",
			cfg:  ClusterConfig{N: 100, Seed: 21},
			mk:   func() (ChurnModel, error) { return NewSTATModel(100), nil },
		},
		{
			// The paper's hash: a serial cluster memoizes single-pair
			// verdicts in a pair matrix, a sharded one uses the bare
			// selector (a shared matrix was a data race: concurrent map
			// read and write within three simulated minutes at N = 2000).
			// This row and SYNTH-BD-md5-loss are the memo's determinism
			// check: memoized and bare runs end at one pinned digest.
			name: "STAT-md5",
			cfg:  ClusterConfig{N: 100, Seed: 30, Options: NodeOptions{Hash: HashMD5}},
			mk:   func() (ChurnModel, error) { return NewSTATModel(100), nil },
		},
		{
			name: "SYNTH-BD-md5-loss",
			cfg: ClusterConfig{
				N: 90, Seed: 32, LossModel: must(NewBernoulliLoss(0.05)),
				Options: NodeOptions{Hash: HashMD5, Forgetful: true, PR2: true},
			},
			mk: func() (ChurnModel, error) { return NewSYNTHBDModel(90, 0.3, 0.3) },
		},
		{
			// Overreporting is a read-out argument (Availability) and
			// never touches the protocol, so this row's digest is the
			// honest run's.
			name: "SYNTH-BD-loss-overreport",
			cfg: ClusterConfig{
				N: 90, Seed: 22, LossModel: must(NewBernoulliLoss(0.05)),
				Options: NodeOptions{Forgetful: true, PR2: true},
			},
			mk: func() (ChurnModel, error) { return NewSYNTHBDModel(90, 0.3, 0.3) },
		},
		{
			name: "OV-trace",
			cfg:  ClusterConfig{Seed: 23},
			mk:   func() (ChurnModel, error) { return NewOvernetModel(60, 2*time.Hour, 23) },
		},
		{
			// Lognormal latency: the sharded lookahead adapts to the
			// 20ms floor (not the old constant 50ms), and every latency
			// draw comes from the sender's lane stream. Gilbert-Elliott
			// adds per-sender bursty loss state on the same lane.
			name: "WAN-lognormal-GE-burst",
			cfg: ClusterConfig{
				N: 90, Seed: 24,
				LatencyModel: must(NewLognormalLatency(20*time.Millisecond, 60*time.Millisecond, 0.7, 2*time.Second)),
				LossModel:    must(NewGilbertElliottLoss(0.02, 0.25, 0.001, 0.3)),
				Options:      NodeOptions{Forgetful: true},
			},
			mk: func() (ChurnModel, error) { return NewSYNTHBDModel(90, 0.3, 0.3) },
		},
		{
			// Zone-matrix latency: three zones with asymmetric one-way
			// base latencies and multiplicative jitter; the lookahead
			// adapts to the smallest matrix entry (10ms).
			name: "WAN-zones",
			cfg: ClusterConfig{
				N: 100, Seed: 25,
				LatencyModel: must(NewZoneLatency([][]time.Duration{
					{10 * time.Millisecond, 80 * time.Millisecond, 150 * time.Millisecond},
					{85 * time.Millisecond, 15 * time.Millisecond, 200 * time.Millisecond},
					{140 * time.Millisecond, 210 * time.Millisecond, 12 * time.Millisecond},
				}, 0.25)),
				LossModel: must(NewBernoulliLoss(0.02)),
			},
			mk: func() (ChurnModel, error) { return NewSYNTHModel(100, 0.2) },
		},
		{
			// A colluding quarter of the population: the ring lies only
			// in read-outs, so this digest is the honest run's
			// (TestCollusionIsAReadOut).
			name: "chaos-collusion",
			cfg: ClusterConfig{
				N: 90, Seed: 26,
				Collusion: 0.25,
				Options:   NodeOptions{Forgetful: true},
			},
			mk: func() (ChurnModel, error) { return NewSYNTHBDModel(90, 0.3, 0.3) },
		},
		{
			// Correlated zone outages under the matching zone-matrix
			// latency: whole zones fail and heal mid-fingerprint, with
			// the second outage straddling the control-enroll boundary.
			name: "chaos-zone-outage",
			cfg: ClusterConfig{
				N: 90, Seed: 27,
				LatencyModel: must(NewZoneLatency([][]time.Duration{
					{10 * time.Millisecond, 80 * time.Millisecond, 150 * time.Millisecond},
					{85 * time.Millisecond, 15 * time.Millisecond, 200 * time.Millisecond},
					{140 * time.Millisecond, 210 * time.Millisecond, 12 * time.Millisecond},
				}, 0.25)),
				LossModel: must(NewBernoulliLoss(0.02)),
			},
			mk: func() (ChurnModel, error) {
				schedule, err := ParseOutageSchedule("1@10m+10m,2@24m+5m")
				if err != nil {
					return nil, err
				}
				return NewZoneOutageModel(90, 3, schedule)
			},
		},
		{
			// Flash crowd plus mass leave and heal, all inside the
			// fingerprint window: deterministic population shocks on
			// top of the ordered-join base.
			name: "chaos-flash-crowd",
			cfg:  ClusterConfig{N: 80, Seed: 28, Options: NodeOptions{Forgetful: true}},
			mk: func() (ChurnModel, error) {
				return NewStormModel(StormConfig{
					N: 80, SurgeNodes: 40, SurgeAt: 8 * time.Minute, SurgeWindow: 4 * time.Minute,
					LeaveNodes: 30, LeaveAt: 18 * time.Minute, LeaveWindow: 4 * time.Minute,
					HealAt: 30 * time.Minute,
				})
			},
		},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			serial, control := fingerprintRun(t, tc.cfg, tc.mk)
			want := serial.Fingerprint()
			line := tc.name + " " + want + "\n"
			golden.WriteString(line)
			if !*updateGolden && !strings.Contains(string(pinned), line) {
				t.Errorf("serial fingerprint %s is not the one pinned in %s", want, goldenPath)
			}
			// Shards 0 and 1 are one engine (NewCluster maps 0 to 1), so
			// the serial run above is the one-shard run.
			for _, shards := range []int{2, 8} {
				cfg := tc.cfg
				cfg.Shards = shards
				sharded, shControl := fingerprintRun(t, cfg, tc.mk)
				if !reflect.DeepEqual(shControl, control) {
					t.Errorf("shards=%d enrolled control group %v, serial %v", shards, shControl, control)
				}
				if sharded.Fingerprint() != want {
					t.Errorf("shards=%d diverged from serial run (fingerprints differ)\n%s",
						shards, firstDiff(stateText(t, serial), stateText(t, sharded)))
				}
			}
		})
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// firstDiff locates the first differing line of two fingerprints.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\nserial:  %s\nsharded: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// overreportFractions are the read-out fractions the Availability
// tests sweep: none, Figure 20's, and everyone.
var overreportFractions = []float64{0, 0.05, 0.2, 1}

// psMean is Availability written out: the mean of the estimates node
// idx's discovered monitors hold of it (PS in discovery order, every
// monitor verified), where a colluder asked about a victim reads 0 and
// any other monitor whose ticket — its generator's first draw — is
// below f reads 1.
func psMean(c *Cluster, idx int, f float64) (float64, bool) {
	sum, n := 0.0, 0
	for _, mon := range c.MonitorsOf(idx) {
		mi, ok := c.IndexOf(mon)
		if !ok {
			continue
		}
		est, known := c.EstimateBy(mi, c.IDOf(idx))
		ticket := sim.CompactRand(c.cfg.Seed ^ (int64(mi)+1)*0x5851F42D4C957F2D).Float64()
		if c.IsColluder(mi) && !c.IsColluder(idx) {
			est, known = 0, true
		} else if ticket < f {
			est, known = 1, true
		}
		if known {
			sum += est
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// readOuts reads every node, one past the last included, at every
// overreportFractions entry, checks each against psMean and the
// cluster's Fingerprint against the one it had before, and returns the
// read-outs by fraction.
func readOuts(t *testing.T, name string, c *Cluster) map[float64][]float64 {
	t.Helper()
	before := c.Fingerprint()
	reads := make(map[float64][]float64)
	for _, f := range overreportFractions {
		for idx := 0; idx <= c.Size(); idx++ {
			got, ok := c.Availability(idx, f)
			want, wantOK := psMean(c, idx, f)
			if got != want || ok != wantOK {
				t.Errorf("%s: node %d reads %v, %t at overreport %v, the PS-mean is %v, %t", name, idx, got, ok, f, want, wantOK)
			}
			if !ok {
				got = -1
			}
			reads[f] = append(reads[f], got)
		}
	}
	if c.Fingerprint() != before {
		t.Errorf("%s: reading availability moved the fingerprint", name)
	}
	return reads
}

// TestClusterOverreporters: Figure 20's attack lives in the read-out.
// On one churned, honest run, at one shard and two, every node reads
// at every fraction what psMean says, and the read-outs leave the run
// as it was; everyone answered reads 1 when every monitor lies, and
// some node's reading moves at Figure 20's 0.2.
func TestClusterOverreporters(t *testing.T) {
	for _, shards := range []int{1, 2} {
		model, err := NewSYNTHModel(60, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(ClusterConfig{N: 60, Seed: 12, Shards: shards}, model)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(time.Hour)
		name := fmt.Sprintf("shards %d", shards)
		reads := readOuts(t, name, c)
		moved := 0
		for idx, honest := range reads[0] {
			if all := reads[1][idx]; all != 1 && (all != -1 || honest != -1) {
				t.Errorf("%s: node %d reads %v with every monitor lying, want 1", name, idx, all)
			}
			if reads[0.2][idx] != honest {
				moved++
			}
		}
		if moved == 0 {
			t.Errorf("%s: gate measured nothing: no reading moved at overreport 0.2", name)
		}
	}
}

// TestClusterAvailability: Availability is psMean for every node,
// honest or attacked by a colluding ring, at one shard and two and at
// every overreport fraction; and a node that no monitor has an
// estimate of yet reads ok == false.
func TestClusterAvailability(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, cfg := range []ClusterConfig{
			{N: 80, Seed: 5, Shards: shards},
			{N: 80, Seed: 6, Shards: shards, Collusion: 0.25},
		} {
			c, err := NewCluster(cfg, NewSTATModel(cfg.N))
			if err != nil {
				t.Fatal(err)
			}
			c.Run(30 * time.Minute)
			late := c.EnrollControl(1)[0]
			c.Run(time.Second) // it joins; no probe of it has resolved
			name := fmt.Sprintf("shards %d, collusion %v", shards, cfg.Collusion)
			answered, forged := 0, 0
			for _, got := range readOuts(t, name, c)[0] {
				if got >= 0 {
					answered++
				}
				if got >= 0 && got != 1 {
					forged++
				}
			}
			if answered < cfg.N/2 || cfg.Collusion > 0 && forged == 0 {
				t.Errorf("%s: gate measured nothing: %d of %d nodes answered, %d below 1", name, answered, c.Size(), forged)
			}
			if cfg.Collusion == 0 {
				if est, ok := c.Availability(late, 0); ok {
					t.Errorf("%s: a node that joined a second ago reads %v", name, est)
				}
			}
		}
	}
}

// TestCollusionIsAReadOut: a colluding ring never changes the run. On
// the chaos-collusion fingerprint row's set-up, at one shard and two,
// the cluster with a quarter of its population colluding ends with the
// fingerprint of the one without; only the read-out differs, where a
// colluder answers 0 for a victim.
func TestCollusionIsAReadOut(t *testing.T) {
	mk := func() (ChurnModel, error) { return NewSYNTHBDModel(90, 0.3, 0.3) }
	for _, shards := range []int{1, 2} {
		cfg := ClusterConfig{N: 90, Seed: 26, Shards: shards, Options: NodeOptions{Forgetful: true}}
		honest, _ := fingerprintRun(t, cfg, mk)
		cfg.Collusion = 0.25
		ring, _ := fingerprintRun(t, cfg, mk)
		if got, want := ring.Fingerprint(), honest.Fingerprint(); got != want {
			t.Errorf("shards %d: collusion 0.25 ended with fingerprint %s, collusion 0 with %s", shards, got, want)
		}
		forged := 0
		for idx := 0; idx < ring.Size(); idx++ {
			a, aok := honest.Availability(idx, 0)
			b, bok := ring.Availability(idx, 0)
			if !ring.IsColluder(idx) && (a != b || aok != bok) {
				forged++
			}
		}
		if forged == 0 {
			t.Errorf("shards %d: no victim's availability reads differently under collusion", shards)
		}
	}
}

func TestClusterSurvivesMessageLoss(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		N: 80, Seed: 13, LossModel: must(NewBernoulliLoss(0.2)),
	}, NewSTATModel(80))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(time.Hour)
	found := 0
	for i := 0; i < c.Size(); i++ {
		if c.Stats(i).PSSize > 0 {
			found++
		}
	}
	if found < 60 {
		t.Errorf("only %d of 80 nodes discovered monitors under 20%% loss", found)
	}
}

func TestClusterStatsAccounting(t *testing.T) {
	c := statCluster(t, 50, 14, NodeOptions{})
	c.Run(30 * time.Minute)
	s := c.Stats(0)
	if !s.Alive || s.Dead || !s.EverBorn {
		t.Errorf("lifecycle flags = %+v", s)
	}
	if s.Traffic.BytesOut == 0 || s.Traffic.MsgsOut == 0 {
		t.Error("no traffic recorded")
	}
	if s.HashChecks == 0 {
		t.Error("no hash checks recorded")
	}
	if s.MemoryEntries != s.PSSize+s.TSSize+s.CVSize {
		t.Error("MemoryEntries mismatch")
	}
	if s.UpTime <= 0 || s.LifeTime <= 0 || s.TrueAvailability() != 1 {
		t.Errorf("uptime accounting: up=%v life=%v avail=%v", s.UpTime, s.LifeTime, s.TrueAvailability())
	}
	c.ResetTraffic()
	if got := c.Stats(0).Traffic.BytesOut; got != 0 {
		t.Errorf("traffic after reset = %d", got)
	}
	// Out-of-range stats are zero-valued, not a panic.
	if s := c.Stats(9999); s.EverBorn {
		t.Error("phantom stats for out-of-range index")
	}
}

func TestClusterVariantCVS(t *testing.T) {
	for _, tc := range []struct {
		variant Variant
		n       int
		want    int
	}{
		{VariantMDC, 1_000_000, 32},
		{VariantGeneric, 1024, 10},
	} {
		c, err := NewCluster(ClusterConfig{
			N: tc.n, Seed: 1, Options: NodeOptions{Variant: tc.variant},
		}, NewSTATModel(4)) // tiny population; N is the protocol parameter
		if err != nil {
			t.Fatal(err)
		}
		if got := c.CVS(); got != tc.want {
			t.Errorf("variant %v at N=%d: cvs = %d, want %d", tc.variant, tc.n, got, tc.want)
		}
	}
}

func TestTheorem1EventualCompleteDiscovery(t *testing.T) {
	// Theorem 1: if (x, y) satisfy the consistency condition and both
	// stay alive long enough, y eventually lands in TS(x). PR 2 had to
	// exclude pairs whose endpoints had coalesced out of every coarse
	// view: under STAT nothing re-inserted a node into other nodes'
	// coarse views, so indegree 0 was an absorbing state. Nodes now
	// self-repair — an emptied or contact-starved coarse view triggers
	// a JOIN-style re-bootstrap walk (core.Node.rebootstrap) — so the
	// theorem holds unconditionally: EVERY related pair must be
	// discovered, on every seed, with no reachability carve-out.
	if testing.Short() {
		t.Skip("long simulation")
	}
	const n = 50
	for seed := int64(77); seed < 80; seed++ {
		c := statCluster(t, n, seed, NodeOptions{})
		c.Run(6 * time.Hour) // E[D] ≈ N/cvs² ≪ 1 period; 360 periods is ample
		scheme := c.Scheme()
		missing := 0
		total := 0
		for xi := 0; xi < n; xi++ {
			x := c.IDOf(xi)
			tsSet := make(map[ID]bool)
			for _, id := range c.TargetsOf(xi) {
				tsSet[id] = true
			}
			for yi := 0; yi < n; yi++ {
				y := c.IDOf(yi)
				if x == y || !scheme.Related(x, y) {
					continue
				}
				total++
				if !tsSet[y] {
					missing++
				}
			}
		}
		if total == 0 {
			t.Fatalf("seed %d: no related pairs in population", seed)
		}
		if missing != 0 {
			t.Errorf("seed %d: %d of %d related pairs undiscovered after 360 periods",
				seed, missing, total)
		}
	}
}

func TestDiscoveryFasterWithLargerCVS(t *testing.T) {
	// The cvs tradeoff (Section 4.2): quadrupling cvs must cut the
	// mean discovery time.
	if testing.Short() {
		t.Skip("long simulation")
	}
	mean := func(cvs int) time.Duration {
		c, err := NewCluster(ClusterConfig{
			N: 400, Seed: 5, Options: NodeOptions{CVS: cvs},
		}, NewSTATModel(400))
		if err != nil {
			t.Fatal(err)
		}
		c.Run(15 * time.Minute)
		control := c.EnrollControl(40)
		c.Run(90 * time.Minute)
		var sum time.Duration
		count := 0
		for _, idx := range control {
			if dts := c.Stats(idx).DiscoveryTimes; len(dts) > 0 {
				sum += dts[0]
				count++
			}
		}
		if count == 0 {
			t.Fatal("no discoveries")
		}
		return sum / time.Duration(count)
	}
	small := mean(6)
	large := mean(24)
	if large >= small {
		t.Errorf("cvs=24 discovery %v not faster than cvs=6 discovery %v", large, small)
	}
}

// TestBirthAllocs gates the node block: Cluster.Birth builds a node's
// endpoint, lane, both random streams, protocol node and coarse-view
// storage in place in slab memory, so a birth allocates bringUp's
// closure and its share of two slabs and a few growing tables. The
// same state as separate objects was 13 allocations.
func TestBirthAllocs(t *testing.T) {
	c := statCluster(t, 8, 1, NodeOptions{Hash: HashFast})
	idx := c.Size()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Birth(idx)
		idx++
	})
	if allocs > 3 {
		t.Errorf("Cluster.Birth allocates %v objects per node, want ≤ 3", allocs)
	}
	if c.Size() != idx || c.AliveCount() != idx {
		t.Fatalf("gate measured nothing: %d members, %d alive after %d births", c.Size(), c.AliveCount(), idx)
	}
}

// TestRejoinTicksOncePerPeriod holds a member's ticks to its life: a
// member that leaves and rejoins within one period runs one protocol and
// one monitoring tick per period afterwards — its old life's ticks end at
// their next firing instead of running beside the new life's. A lone node
// has nobody to message, so once the old life's firings are past every
// engine step is one of its ticks.
func TestRejoinTicksOncePerPeriod(t *testing.T) {
	c := statCluster(t, 1, 1, NodeOptions{})
	c.Run(3 * time.Minute)
	cfg := c.memberAt(0).node.Config()
	c.Leave(0)
	c.Run(cfg.Period / 3)
	c.Rejoin(0)
	c.Run(cfg.Period) // the old life's last firings
	const periods = 10
	before := c.Steps()
	c.Run(periods * cfg.Period)
	want := periods + uint64(periods*cfg.Period/cfg.MonitorPeriod)
	if got := c.Steps() - before; got != want {
		t.Errorf("%d ticks in %d periods after a rejoin, want %d", got, periods, want)
	}
}

// TestRejoinAllocs gates one leave + rejoin cycle run through the engine:
// takeDown's and bringUp's closures. A member is the handler of its own
// ticks, so rejoining allocates no ticker; with a sim.Ticker per tick
// and a method value for each, the cycle allocated 6 objects.
func TestRejoinAllocs(t *testing.T) {
	c := statCluster(t, 1, 1, NodeOptions{})
	c.Run(time.Minute)
	period := c.memberAt(0).node.Config().Period
	allocs := testing.AllocsPerRun(100, func() {
		c.Leave(0)
		c.Run(period / 3)
		c.Rejoin(0)
		c.Run(period)
	})
	t.Logf("a leave + rejoin cycle allocates %v objects", allocs)
	if allocs > 2 {
		t.Errorf("a leave + rejoin cycle allocates %v objects, want ≤ 2", allocs)
	}
	if c.AliveCount() != 1 {
		t.Fatal("gate measured nothing: the member is not alive after its cycles")
	}
}

// TestNodeBlockBytes pins the member block at no more than 448 bytes,
// a whole number of cache lines (146 blocks to a slab, each starting on
// a line): Endpoint 128 (receiver 16, counters 56, network 8, a lane of
// 32 whose random stream is built on its first draw, index and loss
// state 8, registry slot 8), the worker's scratch pointer 8, Node 248
// (its configuration shared by pointer, its generator an interface
// value), the node's 32-byte xoshiro generator, which draws for itself
// with no rand.Rand around it, the harness's 24 (life and two flags,
// uptime, useless pings; the birth instant is the node's) and 8 free
// bytes, reserved for a last-resort contact (ROADMAP.md item 1(b)). It
// also holds the bytes the cluster keeps per node — a slab's share of
// one block and of exactly cvs coarse-view entries — to no more than
// the same state cost as separately allocated objects, each rounded up
// to its allocator size class, the layout the block replaced: Endpoint
// 144, Lane 24, two rand.Rand 48 and their sources 32, member 112, the
// handler, envelope and scratch closures 24 each, Node 480, view 32,
// and a CV slice grown to at least the class that holds cvs entries (it
// was often the next power of two). A block that outgrows this shows as
// heap_live_mb on the repository benchmark's simulator workloads.
func TestNodeBlockBytes(t *testing.T) {
	const separate = 144 + 24 + 2*(48+32) + 112 + 3*24 + 480 + 32
	if size := unsafe.Sizeof(member{}); size > 448 || size%64 != 0 {
		t.Errorf("the member block is %d bytes, want ≤ 448 and a multiple of 64", size)
	}
	var c Cluster
	if addr := uintptr(unsafe.Pointer(c.newBlock())); addr%64 != 0 {
		t.Errorf("a slab's first block starts %d bytes into a cache line", addr%64)
	}
	// A slab's bytes over the items of the given size it yields.
	share := func(size uintptr) uintptr { return (slabBytes + slabBytes/size - 1) / (slabBytes / size) }
	block := share(unsafe.Sizeof(member{}))
	for _, c := range []struct{ cvs, cvClass uintptr }{{27, 224}, {48, 384}} {
		got, was := block+share(c.cvs*8), separate+c.cvClass
		t.Logf("cvs %d: %d bytes per node (block %d), separate objects %d", c.cvs, got, block, was)
		if got > was {
			t.Errorf("cvs %d: the cluster holds %d bytes per node, more than the %d of separate objects", c.cvs, got, was)
		}
	}
}

// TestDeliveryFieldsFirst holds the block to the order a delivery reads
// it — Network.Fire, then Deliver → Handle → handleJoin → send →
// Endpoint.Send. At every level of the block the fields that path reads
// come first, in the listed order, so a field inserted ahead of them
// fails here; the endpoint's lie in the block's first 128 bytes and the
// rest in the next 128, so a delivery loads four of the block's cache
// lines, plus the generator's when it draws. everBorn is listed because
// it shares alive's word.
func TestDeliveryFieldsFirst(t *testing.T) {
	hot := []struct {
		typ    reflect.Type
		fields []string
	}{
		{reflect.TypeOf(member{}), []string{"ep", "ws", "node"}},
		{reflect.TypeOf(simnet.Endpoint{}), []string{"recv", "counters", "net", "lane", "idx"}},
		{reflect.TypeOf(simnet.Counters{}), []string{"MsgsOut", "MsgsIn", "BytesOut", "BytesIn"}},
		{reflect.TypeOf(sim.Lane{}), []string{"LaneRef", "seq"}},
		{reflect.TypeOf(core.Node{}), []string{"alive", "everBorn", "id", "tr", "rand", "cfg", "cv", "lastCoarseContact"}},
	}
	end := map[reflect.Type]uintptr{} // one past the last byte of each type's delivery fields
	for _, h := range hot {
		for i, name := range h.fields {
			if i >= h.typ.NumField() || h.typ.Field(i).Name != name {
				t.Fatalf("%v: field %d is not %s: the delivery fields must come first, in the order %v", h.typ, i, name, h.fields)
			}
			f := h.typ.Field(i)
			end[h.typ] = f.Offset + f.Type.Size()
		}
	}
	var m member
	if got := unsafe.Offsetof(m.ep) + end[reflect.TypeOf(m.ep)]; got > 128 {
		t.Errorf("the endpoint's delivery fields end %d bytes into the block, want ≤ 128", got)
	}
	if got := unsafe.Offsetof(m.node) + end[reflect.TypeOf(m.node)]; unsafe.Offsetof(m.ws) < 128 || got > 256 {
		t.Errorf("the scratch pointer and the node's delivery fields span [%d, %d) of the block, want within [128, 256)",
			unsafe.Offsetof(m.ws), got)
	}
}
