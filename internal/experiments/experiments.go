// Package experiments regenerates every table and figure of the
// paper's evaluation (Table 1, Figures 3-20). The paper runs a handful
// of experiment sets and reads several figures off each; so does this
// package: a sweep is one set of simulations, a view renders one
// table or figure from a finished sweep, and the catalogue
// (catalogue.go) says which sweep each experiment id reads. RunAll
// runs each distinct sweep once and renders every requested view;
// cmd/avmon-bench drives it from the command line and bench_test.go
// wraps each id in a testing.B benchmark.
//
// Durations scale with Options.Scale: 1.0 approximates the paper's
// methodology (hour-scale warm-up, multi-hour measurement; the paper
// ran 48h wall-clock per point, which changes none of the reported
// steady-state metrics), while small values give quick smoke runs.
//
// A sweep's points (N × scheme × seed combinations) are independent
// simulations; the engine in engine.go fans them across
// Options.Parallelism workers with per-point seed derivation, so
// parallel and serial runs produce identical output. See EXPERIMENTS.md
// for the paper-claim → experiment id map.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"avmon"
	"avmon/internal/churn"
	"avmon/internal/stats"
)

// Options control experiment scale and reproducibility.
type Options struct {
	// Scale multiplies the per-experiment durations (default 1.0).
	Scale float64
	// Seed drives all randomness (default 1). Each sweep point runs
	// with a seed derived from Seed and the point's index, so results
	// are a pure function of Options regardless of Parallelism.
	Seed int64
	// Ns overrides the system sizes swept by size-sweep experiments.
	Ns []int
	// Parallelism caps how many sweep points run concurrently
	// (default GOMAXPROCS). 1 forces a serial run; results are
	// identical either way.
	Parallelism int
	// Shards partitions each single simulation across this many
	// parallel engine shards (0 or 1 = one shard, the serial case).
	// Results are byte-identical at any value — the engine's determinism
	// contract — so this is purely a wall-clock knob, orthogonal to
	// Parallelism (which runs independent sweep points concurrently).
	// The scale experiment treats it specially: it runs each point
	// serial, then again sharded, and reports the speedup.
	Shards int
	// Progress, when non-nil, receives a serialized callback each
	// time a sweep point completes — useful for long paper-scale
	// runs. It must not assume any completion order, and done reaches
	// total only when the sweep succeeds.
	Progress ProgressFunc
}

// ErrInvalidOptions is wrapped by every error that rejects an Options
// value before anything runs.
var ErrInvalidOptions = errors.New("experiments: invalid options")

// validate rejects Options no experiment can run under. RunAll calls it
// once, before the first simulation.
func (o Options) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrInvalidOptions}, args...)...)
	}
	if !(o.Scale >= 0) || math.IsInf(o.Scale, 1) {
		return bad("Scale %v is not a finite non-negative factor (0 = the default 1.0)", o.Scale)
	}
	if o.Parallelism < 0 {
		return bad("Parallelism %d is negative (0 = GOMAXPROCS)", o.Parallelism)
	}
	if o.Shards < 0 {
		return bad("Shards %d is negative (0 = one shard)", o.Shards)
	}
	seen := make(map[int]bool, len(o.Ns))
	for _, n := range o.Ns {
		if n <= 0 {
			return bad("system size %d in Ns is not positive", n)
		}
		if seen[n] {
			return bad("system size %d appears twice in Ns", n)
		}
		seen[n] = true
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// scaled returns d·Scale, floored at min.
func (o Options) scaled(d, min time.Duration) time.Duration {
	s := time.Duration(float64(d) * o.Scale)
	if s < min {
		return min
	}
	return s
}

// ns returns the sweep sizes (paper default 100..2000).
func (o Options) ns() []int {
	if len(o.Ns) > 0 {
		return o.Ns
	}
	return []int{100, 500, 1000, 2000}
}

// firstN is the one size a fixed-population harness (wan, chaos,
// realnet) runs at: the first of Ns, def when Ns is unset.
func (o Options) firstN(def int) int {
	if len(o.Ns) > 0 {
		return o.Ns[0]
	}
	return def
}

// largestN is the last swept size, the one single-size figures use.
func (o Options) largestN() int {
	ns := o.ns()
	return ns[len(ns)-1]
}

// edgeNs picks the smallest and largest of ns, the two sizes the
// paper's per-node CDFs are drawn for — one size when only one is
// swept.
func edgeNs(ns []int) []int {
	if len(ns) == 1 {
		return ns
	}
	return []int{ns[0], ns[len(ns)-1]}
}

// Table is one titled text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString("## ")
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(widths) {
				for p := len(cell); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Result is one experiment's full output. Artifacts holds optional
// machine-readable outputs keyed by file name (e.g. BENCH_scale.json);
// cmd/avmon-bench writes them next to the rendered tables so future
// runs can track the perf trajectory.
type Result struct {
	ID        string
	Title     string
	Tables    []*Table
	Artifacts map[string][]byte
}

// String renders all tables.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// --- shared scenario machinery ---------------------------------------

// modelKind names the availability models of Section 5 and the
// beyond-paper ones the ablations and the chaos suite add.
type modelKind int

const (
	modelSTAT modelKind = iota + 1
	modelSYNTH
	modelSYNTHBD
	modelSYNTHBD2
	modelPL
	modelOV
	modelFlappy     // SYNTH flapping constantly: 30-minute sessions, 3-minute downtimes
	modelZoneOutage // static, three zones, scenario.outages takes zones down and back
	modelStorm      // static, ordered joins, scenario.storm adds join and leave waves
)

func (k modelKind) String() string {
	switch k {
	case modelSTAT:
		return "STAT"
	case modelSYNTH:
		return "SYNTH"
	case modelSYNTHBD:
		return "SYNTH-BD"
	case modelSYNTHBD2:
		return "SYNTH-BD2"
	case modelPL:
		return "PL"
	case modelOV:
		return "OV"
	case modelFlappy:
		return "flappy-SYNTH"
	case modelZoneOutage:
		return "ZONE-OUTAGE"
	case modelStorm:
		return "STORM"
	default:
		return "?"
	}
}

// scenario describes one simulated run.
type scenario struct {
	kind        modelKind
	n           int // stable size / protocol N
	opts        avmon.NodeOptions
	collusion   float64           // the colluding fraction (avmon.ClusterConfig.Collusion)
	outages     string            // modelZoneOutage: the schedule, in ParseOutageSchedule's format
	storm       avmon.StormConfig // modelStorm: the waves (N is filled in from n)
	warmup      time.Duration     // 0 = no warm-up phase: measure starts the run
	measure     time.Duration
	controlFrac float64 // fraction of N enrolled after warm-up
	// samples > 0 chops measure into that many equal steps and samples
	// coverage after each; 0 runs it uninterrupted.
	samples int
	// twin > 0 makes this point the twin of the one that many places
	// before it in its sweep: it shares that point's seed, and the sweep
	// fails unless both end fingerprint-identical.
	twin      int
	seed      int64
	latModel  avmon.LatencyModel // nil = constant 50ms
	lossModel avmon.LossModel    // nil = lossless
	shards    int                // engine shards for this one run (0/1 = serial)
	label     string             // names the point within its sweep ("" = kind and N)
}

// outcome is the state captured from one finished run.
type outcome struct {
	s          scenario // as run: seed and shards resolved
	c          *avmon.Cluster
	row        any   // a reducing sweep keeps this of the run, and nothing else but s
	control    []int // enrolled control nodes (synthetic models)
	warmupEnd  time.Duration
	wall       time.Duration  // host time the run took
	mem        memUsage       // host-measured sweeps: the reading after the run, counters since its start
	fill       []float64      // stepped runs: coverage fill after each step,
	eclipsed   float64        // and the eclipsed fraction after the last
	checksAtW  map[int]uint64 // hash checks at warm-up end
	uselessAtW map[int]uint64
}

func (s scenario) model(horizon time.Duration) (avmon.ChurnModel, error) {
	switch s.kind {
	case modelSTAT:
		return avmon.NewSTATModel(s.n), nil
	case modelSYNTH:
		return avmon.NewSYNTHModel(s.n, 0.2)
	case modelSYNTHBD:
		return avmon.NewSYNTHBDModel(s.n, 0.2, 0.2)
	case modelSYNTHBD2:
		return avmon.NewSYNTHBDModel(s.n, 0.2, 0.4)
	case modelPL:
		return avmon.NewPlanetLabModel(s.n, horizon, s.seed)
	case modelOV:
		return avmon.NewOvernetModel(s.n, horizon, s.seed)
	case modelFlappy:
		return churn.NewSYNTH(churn.SynthConfig{N: s.n, ChurnPerHour: 2.0, MeanDowntime: 3 * time.Minute})
	case modelZoneOutage:
		// The schedule goes through the textual format so the parser the
		// CLI and the fuzzer exercise is load-bearing here too.
		schedule, err := avmon.ParseOutageSchedule(s.outages)
		if err != nil {
			return nil, err
		}
		return avmon.NewZoneOutageModel(s.n, 3, schedule)
	case modelStorm:
		cfg := s.storm
		cfg.N = s.n
		return avmon.NewStormModel(cfg)
	default:
		return nil, fmt.Errorf("experiments: unknown model kind %d", s.kind)
	}
}

// run executes the scenario: build, warm up, enroll control, measure.
// It is the package's one way to a simulated cluster.
func run(s scenario) (*outcome, error) {
	start := time.Now()
	model, err := s.model(s.warmup + s.measure + time.Hour)
	if err != nil {
		return nil, err
	}
	c, err := avmon.NewCluster(avmon.ClusterConfig{
		N:            s.n,
		Seed:         s.seed,
		Shards:       s.shards,
		Options:      s.opts,
		Collusion:    s.collusion,
		LatencyModel: s.latModel,
		LossModel:    s.lossModel,
	}, model)
	if err != nil {
		return nil, err
	}
	o := &outcome{s: s, c: c}
	if s.warmup > 0 {
		c.Run(s.warmup)
		o.warmupEnd = c.Elapsed()
		o.checksAtW = make(map[int]uint64)
		o.uselessAtW = make(map[int]uint64)
		if s.controlFrac > 0 {
			o.control = c.EnrollControl(int(float64(s.n)*s.controlFrac + 0.5))
		}
		for i := 0; i < c.Size(); i++ {
			st := c.Stats(i)
			o.checksAtW[i] = st.HashChecks
			o.uselessAtW[i] = st.UselessMonPings
		}
		c.ResetTraffic()
	}
	if s.samples == 0 {
		c.Run(s.measure)
	}
	for i := 0; i < s.samples; i++ {
		c.Run(s.measure / time.Duration(s.samples))
		fill, eclipsed := coverage(c)
		o.fill, o.eclipsed = append(o.fill, fill), eclipsed
	}
	o.wall = time.Since(start)
	return o, nil
}

// controlOrLateBorn returns the measurement population: the explicit
// control group if one was enrolled, otherwise every node born after
// warm-up (the implicit control group of SYNTH-BD and the traces).
func (o *outcome) controlOrLateBorn() []int { return o.controlOrBornBy(o.c.Elapsed()) }

// controlOrBornBy is controlOrLateBorn as the run stood at end (an
// offset from its start): a late-born node counts once born by then.
func (o *outcome) controlOrBornBy(end time.Duration) []int {
	if len(o.control) > 0 {
		return o.control
	}
	var out []int
	for i := 0; i < o.c.Size(); i++ {
		st := o.c.Stats(i)
		if st.EverBorn && st.BornAtOffset > o.warmupEnd && st.BornAtOffset <= end {
			out = append(out, i)
		}
	}
	return out
}

// firstDiscoveries returns, for each node in group, the time from its
// birth to its first monitor discovery (nodes that never discovered
// are skipped; the count skipped is also returned).
func (o *outcome) firstDiscoveries(group []int) (times []time.Duration, missed int) {
	for _, idx := range group {
		dts := o.c.Stats(idx).DiscoveryTimes
		if len(dts) == 0 {
			missed++
			continue
		}
		times = append(times, dts[0])
	}
	return times, missed
}

// firstDiscoveriesAsOf is firstDiscoveries over the measurement
// population as the run stood cut into its measurement window, which is
// what a run stopped there reads: the control group, or the nodes born
// after warm-up and by then; a node whose first monitor came later
// counts as missed.
func (o *outcome) firstDiscoveriesAsOf(cut time.Duration) (times []time.Duration, missed int) {
	end := o.warmupEnd + cut
	for _, idx := range o.controlOrBornBy(end) {
		st := o.c.Stats(idx)
		if len(st.DiscoveryTimes) == 0 || st.BornAtOffset+st.DiscoveryTimes[0] > end {
			missed++
			continue
		}
		times = append(times, st.DiscoveryTimes[0])
	}
	return times, missed
}

// meanDiscoveryMinutes averages first-monitor discovery, dropping the
// single largest outlier as the paper does (Figure 3, footnote 8).
func meanDiscoveryMinutes(times []time.Duration) float64 {
	if len(times) == 0 {
		return 0
	}
	if len(times) > 2 {
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		times = times[:len(times)-1]
	}
	var sum time.Duration
	for _, d := range times {
		sum += d
	}
	return sum.Minutes() / float64(len(times))
}

// aliveIndexes returns all currently-alive member indexes.
func (o *outcome) aliveIndexes() []int {
	var out []int
	for i := 0; i < o.c.Size(); i++ {
		if o.c.Stats(i).Alive {
			out = append(out, i)
		}
	}
	return out
}

// cdfTable renders an empirical CDF as (x, fraction ≤ x) rows.
func cdfTable(title, xLabel string, c *stats.CDF, points int) *Table {
	t := &Table{Title: title, Header: []string{xLabel, "fraction"}}
	if c.N() == 0 {
		t.AddRow("(no samples at this scale)", "-")
		return t
	}
	for _, p := range c.Points(points) {
		t.AddRow(fmt.Sprintf("%.3g", p.X), fmt.Sprintf("%.4f", p.Y))
	}
	return t
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func itoa(v int) string   { return fmt.Sprintf("%d", v) }
func u64(v uint64) string { return fmt.Sprintf("%d", v) }
