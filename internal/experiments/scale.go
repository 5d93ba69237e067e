package experiments

// The large-N scale path (not in the paper, which tops out at
// N = 2000): AVMON's headline claim is that the consistency condition
// H(y, x) ≤ K/N needs no coordination and therefore scales with N.
// This experiment exercises the claim directly, sweeping N into the
// 10^6 regime and recording both the protocol metrics the paper
// reports (discovery time, per-node bandwidth) and the simulator's
// own cost of opening that regime (events, wall-clock, memory), so
// future PRs can track the perf trajectory via BENCH_scale.json.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// ScaleArtifactName is the machine-readable output written by the
// scale experiment (via Result.Artifacts / avmon-bench).
//
// The experiment is registered like every table and figure but is
// excluded from `avmon-bench -run all`: its N sweep is fixed (Scale
// only shrinks horizons), so it costs minutes and gigabytes that the
// paper-reproduction flow should not pay implicitly.
const ScaleArtifactName = "BENCH_scale.json"

// scaleDefaultNs is swept when Options.Ns is not set: the paper's top
// size, then up to 2.5 orders of magnitude beyond it. The 10^6 point
// is the memory-diet regime: it runs serial only (no sharded rerun,
// see shardedRerunMaxN), under a Go soft memory limit, and with
// trimmed horizons (see scaleHugeN) — CI never reaches it because
// every test overrides Options.Ns.
var scaleDefaultNs = []int{10_000, 30_000, 100_000, 1_000_000}

// scaleHugeN is the threshold for the huge-N regime: points at or
// above it run with shorter horizons and a soft memory limit, and
// skip the sharded determinism rerun.
const scaleHugeN = 300_000

// scaleHugeMemLimit is the Go soft memory limit installed while a
// huge-N point runs: 7.5 GiB, leaving headroom under the 8 GiB peak
// RSS budget the 10^6 point is gated by. The limit turns "heap grows
// to 2× live" into "GC runs harder near the ceiling" — the right
// trade at 10^6 nodes, where doubling the live set would cost more
// RSS than the extra GC cycles cost wall-clock.
const scaleHugeMemLimit = int64(7680) << 20

// ScalePoint is one sweep point of the scale experiment as serialized
// into BENCH_scale.json. Protocol metrics are deterministic functions
// of (Options, N); host metrics (Wall*, RSS*, Heap*) describe the
// machine that produced the file and vary run to run.
type ScalePoint struct {
	N   int `json:"n"`
	K   int `json:"k"`
	CVS int `json:"cvs"`

	ControlSize       int     `json:"control_size"`
	Discovered        int     `json:"discovered"`
	MeanDiscoveryMin  float64 `json:"mean_discovery_minutes"`
	P93DiscoverySec   float64 `json:"p93_discovery_seconds"`
	BytesPerNodeSec   float64 `json:"bytes_out_per_node_per_second"`
	ChecksPerNodeSec  float64 `json:"hash_checks_per_node_per_second"`
	MemoryEntriesMean float64 `json:"memory_entries_mean"`
	Events            uint64  `json:"events"`

	WallSeconds float64 `json:"wall_seconds"`
	HeapAllocMB float64 `json:"heap_alloc_mb"`
	PeakRSSMB   float64 `json:"peak_rss_mb"`
	// Allocation volume and completed GC cycles during this point's
	// serial run (deltas of runtime.MemStats TotalAlloc / NumGC) — the
	// per-point view of the allocation diet that the host section's
	// process-wide numbers cannot give.
	TotalAllocMB float64 `json:"total_alloc_mb"`
	NumGC        uint32  `json:"num_gc"`

	// Sharded rerun of the same point (present when the sweep ran with
	// Options.Shards > 1). The run is asserted fingerprint-identical to
	// the serial one (Cluster.Fingerprint) — the sharded engine's
	// determinism contract, checked here at full scale — so only the
	// host cost is reported. Speedup = WallSeconds / WallSecondsSharded; it exceeds
	// 1 only when the host has cores to spare (see HostCores in the
	// envelope).
	Shards             int     `json:"shards,omitempty"`
	WallSecondsSharded float64 `json:"wall_seconds_sharded,omitempty"`
	Speedup            float64 `json:"speedup,omitempty"`

	// Scheduler counters of the sharded rerun (see avmon.SchedStats):
	// executed windows, coordinator barriers (always equal to windows)
	// and per-shard busy wall-clock. Windows are deterministic; busy
	// times describe the host.
	BarriersSharded uint64  `json:"barriers_sharded,omitempty"`
	WindowsSharded  uint64  `json:"windows_sharded,omitempty"`
	ShardBusyNS     []int64 `json:"shard_busy_ns,omitempty"`
}

// scaleProgress narrates paper-scale sweep points to stderr: a
// default sweep runs for hours, and without per-point lines a user
// (or CI timeout) cannot tell the 10⁶ point from a hang. Points below
// 10⁴ nodes — every test override — stay silent.
func scaleProgress(n int, format string, args ...any) {
	if n < 10_000 {
		return
	}
	fmt.Fprintf(os.Stderr, "scale: N=%d "+format+"\n", append([]any{n}, args...)...)
}

// scaleArtifact is the BENCH_scale.json envelope.
type scaleArtifact struct {
	Experiment string       `json:"experiment"`
	Seed       int64        `json:"seed"`
	Scale      float64      `json:"scale"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	HostCores  int          `json:"host_cores,omitempty"`
	Host       HostStats    `json:"host"`
	Points     []ScalePoint `json:"points"`
}

// scale sweeps a static system to N = 100,000 (by default) and
// reports discovery time, per-node bandwidth, and the host cost of
// the run. Unlike the paper experiments, each sweep point's cluster
// is released as soon as its metrics are extracted — at 10^5 nodes
// the cluster itself is the dominant allocation, and the sweep must
// not hold three of them to the end.
func scale(o Options) (*Result, error) {
	// Points run serially regardless of Options.Parallelism: the host
	// metrics (wall, heap, peak RSS) are process-wide measurements,
	// and concurrent 10^4–10^5-node clusters would cross-contaminate
	// them — BENCH_scale.json must be comparable across PRs. Protocol
	// metrics are seed-derived per point and unaffected either way.
	o.Parallelism = 1
	ns := o.Ns
	if len(ns) == 0 {
		ns = scaleDefaultNs
	}
	scens := make([]scenario, len(ns))
	for i, n := range ns {
		// ~100 control joiners measure discovery; at small N (tests,
		// reduced-scale benches) fall back to the 10% the paper uses.
		frac := 100 / float64(n)
		if frac > 0.10 {
			frac = 0.10
		}
		// Shorter horizon than the paper sweeps: control joiners are
		// spread into ~cvs coarse views by their JOIN and discover
		// within a few periods, so 20 measured periods suffice — and
		// at N = 10^5 every simulated minute costs ~10^9 hash checks.
		warmup := o.scaled(10*time.Minute, 8*time.Minute)
		measure := o.scaled(20*time.Minute, 10*time.Minute)
		if n >= scaleHugeN {
			// Huge-N regime: a simulated minute at 10^6 nodes costs
			// ~3×10^7 events, so the horizons shrink again. Discovery
			// of the ~100 control joiners still completes within a few
			// monitor periods; the trimmed measure window keeps the
			// point at ~10^8 events instead of ~10^9. These points are
			// NOT comparable to the N ≤ 10^5 horizon — they exist to
			// pin the memory and throughput trajectory, not to extend
			// the discovery-time curve.
			warmup = o.scaled(6*time.Minute, 5*time.Minute)
			measure = o.scaled(8*time.Minute, 6*time.Minute)
		}
		scens[i] = scenario{
			kind:        modelSTAT,
			n:           n,
			warmup:      warmup,
			measure:     measure,
			controlFrac: frac,
		}
	}
	pts := make([]ScalePoint, len(scens))
	err := forEachPoint(o, len(scens),
		func(i int) string { return pointLabel(scens[i]) },
		func(i int) error {
			s := scens[i]
			s.seed = deriveSeed(o.Seed, i)
			if s.n >= scaleHugeN {
				defer debug.SetMemoryLimit(debug.SetMemoryLimit(scaleHugeMemLimit))
			}
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			scaleProgress(s.n, "serial start (peak RSS %.1f MB)", peakRSSMB())
			out, err := run(s)
			if err != nil {
				return err
			}
			pts[i] = scalePointMetrics(s.n, out, time.Since(start), before)
			scaleProgress(s.n, "serial done in %.0fs: heap %.1f MB, peak RSS %.1f MB",
				pts[i].WallSeconds, pts[i].HeapAllocMB, pts[i].PeakRSSMB)
			if o.Shards <= 1 || s.n > shardedRerunMaxN {
				return nil
			}
			// Rerun the identical point on the sharded engine. Beyond
			// the speedup measurement this is the determinism contract
			// checked at full scale: the whole cluster state must
			// fingerprint the same as the serial run's, or the sweep
			// fails.
			s.shards = o.Shards
			serial := out.c.Fingerprint()
			out = nil // release the serial cluster before building the next
			runtime.ReadMemStats(&before)
			start = time.Now()
			shardedOut, err := run(s)
			if err != nil {
				return err
			}
			sharded := scalePointMetrics(s.n, shardedOut, time.Since(start), before)
			scaleProgress(s.n, "sharded rerun done in %.0fs", sharded.WallSeconds)
			if got := shardedOut.c.Fingerprint(); got != serial {
				return fmt.Errorf("scale: sharded run diverged from serial at N=%d: fingerprint %s vs %s",
					s.n, got, serial)
			}
			pts[i].Shards = o.Shards
			pts[i].WallSecondsSharded = sharded.WallSeconds
			if sharded.WallSeconds > 0 {
				pts[i].Speedup = pts[i].WallSeconds / sharded.WallSeconds
			}
			if st, ok := shardedOut.c.SchedStats(); ok {
				pts[i].BarriersSharded = st.Barriers
				pts[i].WindowsSharded = st.Windows
				for _, sh := range st.PerShard {
					pts[i].ShardBusyNS = append(pts[i].ShardBusyNS, sh.BusyNS)
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}

	proto := &Table{
		Title: "Large-N sweep: protocol metrics (deterministic)",
		Header: []string{"N", "K", "cvs", "control", "discovered",
			"mean disc (min)", "p93 disc (s)", "B/s/node", "checks/s/node", "mem entries", "events"},
	}
	host := &Table{
		Title: "Large-N sweep: host metrics (non-deterministic, this machine)",
		Header: []string{"N", "wall (s)", "heap alloc (MB)", "peak RSS (MB)",
			"shards", "wall sharded (s)", "speedup", "barriers", "windows"},
	}
	for _, p := range pts {
		proto.AddRow(itoa(p.N), itoa(p.K), itoa(p.CVS),
			itoa(p.ControlSize), itoa(p.Discovered),
			f2(p.MeanDiscoveryMin), f2(p.P93DiscoverySec),
			f2(p.BytesPerNodeSec), f2(p.ChecksPerNodeSec),
			f2(p.MemoryEntriesMean), fmt.Sprintf("%d", p.Events))
		shards, wallSharded, speedup, barriers, windows := "-", "-", "-", "-", "-"
		if p.Shards > 1 {
			shards, wallSharded, speedup = itoa(p.Shards), f2(p.WallSecondsSharded), f2(p.Speedup)
			barriers, windows = u64(p.BarriersSharded), u64(p.WindowsSharded)
		}
		host.AddRow(itoa(p.N), f2(p.WallSeconds), f2(p.HeapAllocMB), f2(p.PeakRSSMB),
			shards, wallSharded, speedup, barriers, windows)
	}

	artifacts, err := artifact("scale", ScaleArtifactName, scaleArtifact{
		Experiment: "scale",
		Seed:       o.Seed,
		Scale:      o.Scale,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		HostCores:  runtime.NumCPU(),
		Host:       collectHostStats(),
		Points:     pts,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:        "scale",
		Title:     "Scalability of discovery, bandwidth, and simulation cost to N = 1,000,000",
		Tables:    []*Table{proto, host},
		Artifacts: artifacts,
	}, nil
}

// shardedRerunMaxN caps the sharded determinism rerun: the equivalence
// anchor is checked at every point up to 10^5, where serial and
// sharded runs both fit comfortably in time and memory. The 10^6 point
// is pinned serial — rerunning it sharded would double a multi-hour
// wall cost for a contract already verified three times in the same
// sweep.
const shardedRerunMaxN = 100_000

// scalePointMetrics extracts one sweep point's metrics and lets the
// cluster go unreferenced afterwards. before is the MemStats snapshot
// taken when the point started; allocation volume and GC cycles are
// reported as deltas against it.
func scalePointMetrics(n int, out *outcome, wall time.Duration, before runtime.MemStats) ScalePoint {
	c := out.c
	p := ScalePoint{
		N:           n,
		K:           c.K(),
		CVS:         c.CVS(),
		Events:      c.Steps(),
		WallSeconds: wall.Seconds(),
	}

	d := out.discovery()
	p.ControlSize, p.Discovered = d.control, d.discovered
	p.MeanDiscoveryMin, p.P93DiscoverySec = d.meanMin, d.p93Sec

	alive := out.aliveIndexes()
	p.BytesPerNodeSec = welford(out.bytesOutPer(out.s.measure.Seconds(), alive)).Mean()
	p.ChecksPerNodeSec = welford(out.compsPerSecond(alive)).Mean()
	p.MemoryEntriesMean = welford(out.memoryEntries(alive)).Mean()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.HeapAllocMB = float64(ms.HeapAlloc) / (1 << 20)
	p.TotalAllocMB = float64(ms.TotalAlloc-before.TotalAlloc) / (1 << 20)
	p.NumGC = ms.NumGC - before.NumGC
	p.PeakRSSMB = peakRSSMB()
	return p
}
