package avmon

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"avmon/internal/churn"
	"avmon/internal/core"
	"avmon/internal/ids"
	"avmon/internal/memnet"
	"avmon/internal/netstack"
	"avmon/internal/sim"
)

// installSpy is a churn model that records whether a cluster got as far
// as installing it — the step that creates the first lane.
type installSpy struct {
	ChurnModel
	installed bool
}

func (m *installSpy) Install(eng *sim.Engine, d churn.Driver) {
	m.installed = true
	m.ChurnModel.Install(eng, d)
}

// brokenNodeOptions breaks one NodeOptions field per entry; both config
// surfaces share NodeOptions.validate, so both tables range over it.
var brokenNodeOptions = map[string]func(*NodeOptions){
	"negative K":              func(o *NodeOptions) { o.K = -1 },
	"K above N":               func(o *NodeOptions) { o.K = 1000 },
	"CVS of one":              func(o *NodeOptions) { o.CVS = 1 },
	"negative CVS":            func(o *NodeOptions) { o.CVS = -4 },
	"unknown variant":         func(o *NodeOptions) { o.CVS, o.Variant = 0, 9 },
	"negative period":         func(o *NodeOptions) { o.Period = -time.Second },
	"negative monitor period": func(o *NodeOptions) { o.MonitorPeriod = -time.Second },
	"negative forgetful tau":  func(o *NodeOptions) { o.ForgetfulTau = -time.Minute },
	"negative forgetful c":    func(o *NodeOptions) { o.ForgetfulC = -1 },
	"NaN forgetful c":         func(o *NodeOptions) { o.ForgetfulC = math.NaN() },
	"unknown hash":            func(o *NodeOptions) { o.Hash = "sha256" },
}

// TestClusterConfigValidation: one valid ClusterConfig, one field
// broken per subtest; Validate and NewCluster both reject it under
// ErrInvalidConfig, and no cluster, lane or event exists afterwards.
func TestClusterConfigValidation(t *testing.T) {
	valid := func() ClusterConfig {
		return ClusterConfig{
			N: 50, Seed: 3, Shards: 2,
			LatencyModel: must(NewConstantLatency(20 * time.Millisecond)), LossModel: must(NewBernoulliLoss(0.01)),
			OverreportFraction: 0.1,
			Collusion:          &CollusionConfig{Fraction: 0.2, SuppressPings: true, ForgedAvail: -1},
			Options: NodeOptions{K: 6, CVS: 8, Variant: VariantMD, Hash: HashMD5,
				Period: time.Minute, MonitorPeriod: time.Minute, Forgetful: true,
				ForgetfulTau: time.Minute, ForgetfulC: 2},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (ClusterConfig{}).Validate(); err != nil {
		t.Fatalf("zero config (all defaults) rejected: %v", err)
	}
	broken := map[string]func(*ClusterConfig){
		"negative N":           func(c *ClusterConfig) { c.N = -5 },
		"negative shards":      func(c *ClusterConfig) { c.Shards = -2 },
		"overreport above one": func(c *ClusterConfig) { c.OverreportFraction = 2 },
		"NaN overreport":       func(c *ClusterConfig) { c.OverreportFraction = math.NaN() },
		"collusion above one":  func(c *ClusterConfig) { c.Collusion.Fraction = 1.5 },
		"forged above one":     func(c *ClusterConfig) { c.Collusion.ForgedAvail = 1.01 },
	}
	for name, breakIt := range brokenNodeOptions {
		breakIt := breakIt
		broken[name] = func(c *ClusterConfig) { breakIt(&c.Options) }
	}
	for name, breakIt := range broken {
		breakIt := breakIt
		t.Run(name, func(t *testing.T) {
			cfg := valid()
			breakIt(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("Validate() = %v, want an error wrapping ErrInvalidConfig", err)
			}
			model := &installSpy{ChurnModel: NewSTATModel(50)}
			c, err := NewCluster(cfg, model)
			if c != nil || !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("NewCluster = %v, %v; want nil and an error wrapping ErrInvalidConfig", c, err)
			}
			if model.installed {
				t.Error("the churn model was installed under an invalid config")
			}
		})
	}
}

// TestNewClusterConstruction is the should-construct / should-fail
// table: the shapes of config the examples, the benchmark and the
// experiments pass, and the nonsense that used to simulate anyway —
// CVS 1 ran an empty system, an unknown hash ran the fast mixer.
func TestNewClusterConstruction(t *testing.T) {
	lognormal, err := NewLognormalLatency(5*time.Millisecond, 60*time.Millisecond, 0.6, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	good := []ClusterConfig{
		{},
		{Seed: 1, Options: NodeOptions{K: 14, CVS: 48, Hash: HashFast}},
		{N: 40, Shards: 2, Options: NodeOptions{Hash: HashMD5, NoHashMemo: true}},
		{N: 40, Options: NodeOptions{Variant: VariantGeneric, Forgetful: true, PR2: true}},
		{N: 40, Options: NodeOptions{DisableReshuffle: true, RejoinFullWeight: true}},
		{N: 40, Shards: 8, LatencyModel: lognormal, LossModel: must(NewBernoulliLoss(0.05))},
		{N: 40, Collusion: &CollusionConfig{}, OverreportFraction: 1},
	}
	for i, cfg := range good {
		c, err := NewCluster(cfg, NewSTATModel(40))
		if c == nil || err != nil {
			t.Errorf("good[%d] should have constructed: %v", i, err)
			continue
		}
		c.Run(2 * time.Minute)
		if c.AliveCount() != 40 {
			t.Errorf("good[%d]: %d of 40 nodes alive after two minutes", i, c.AliveCount())
		}
	}
	bad := []ClusterConfig{
		{Options: NodeOptions{CVS: 1}},
		{Options: NodeOptions{Hash: "sha256"}},
		{Options: NodeOptions{K: 41}},
		{N: -1},
		{Shards: -1},
	}
	for i, cfg := range bad {
		c, err := NewCluster(cfg, NewSTATModel(40))
		if c != nil || !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("bad[%d] should have failed to construct under ErrInvalidConfig: %v", i, err)
		}
	}
	for name, model := range map[string]ChurnModel{"nil model": nil, "empty model": NewSTATModel(0)} {
		if c, err := NewCluster(ClusterConfig{}, model); c != nil || !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s should have failed to construct under ErrInvalidConfig: %v", name, err)
		}
	}
}

// TestServiceConfigValidation: one valid ServiceConfig, one field
// broken per subtest; Validate and NewService both reject it under
// ErrInvalidConfig, and the address was never bound.
func TestServiceConfigValidation(t *testing.T) {
	const addr = "127.0.0.1:19997"
	valid := func() ServiceConfig {
		return ServiceConfig{
			Addr: addr, Bootstrap: "127.0.0.1:19996", N: 50, Seed: 1,
			QueryCache: true, QueryCacheTTL: time.Second, QueryCacheEntries: 64,
			Options: NodeOptions{K: 6, CVS: 8, Hash: HashSHA1, Period: time.Second,
				MonitorPeriod: time.Second},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	broken := map[string]func(*ServiceConfig){
		"missing N":              func(c *ServiceConfig) { c.N = 0 },
		"negative N":             func(c *ServiceConfig) { c.N = -3 },
		"bad addr":               func(c *ServiceConfig) { c.Addr = "nonsense" },
		"bad bootstrap":          func(c *ServiceConfig) { c.Bootstrap = "xyz" },
		"negative cache TTL":     func(c *ServiceConfig) { c.QueryCacheTTL = -time.Second },
		"negative cache entries": func(c *ServiceConfig) { c.QueryCacheEntries = -1 },
	}
	for name, breakIt := range brokenNodeOptions {
		breakIt := breakIt
		broken[name] = func(c *ServiceConfig) { breakIt(&c.Options) }
	}
	for name, breakIt := range broken {
		breakIt := breakIt
		t.Run(name, func(t *testing.T) {
			cfg := valid()
			breakIt(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("Validate() = %v, want an error wrapping ErrInvalidConfig", err)
			}
			s, err := NewService(cfg)
			if s != nil || !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("NewService = %v, %v; want nil and an error wrapping ErrInvalidConfig", s, err)
			}
			// Nothing was bound: the address is still free.
			tr, err := netstack.Listen(ids.MustParse(addr))
			if err != nil {
				t.Fatalf("the rejected config left %s bound: %v", addr, err)
			}
			tr.Close()
		})
	}
}

// TestNewServiceConstruction is NewService's should-construct /
// should-fail table, over memnet so no port is at stake.
func TestNewServiceConstruction(t *testing.T) {
	net := memnet.New(memnet.Config{Seed: 1})
	defer net.Close()
	listen := func(i int) Transport {
		tr, err := net.Listen(ids.Sim(i))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	good := []ServiceConfig{
		{N: 10},
		{N: 10, Bootstrap: ids.Sim(1).String(), Seed: 7, QueryCache: true},
		{N: 240, Options: NodeOptions{K: 8, CVS: 10, Hash: HashFast, Period: 60 * time.Millisecond}},
		{N: 10, Options: NodeOptions{Forgetful: true, PR2: true}},
	}
	for i, cfg := range good {
		cfg.Addr, cfg.Transport = ids.Sim(i+1).String(), listen(i+1)
		s, err := NewService(cfg)
		if s == nil || err != nil {
			t.Errorf("good[%d] should have constructed: %v", i, err)
			continue
		}
		s.Stop()
	}
	bad := []ServiceConfig{
		{},
		{N: 10, Options: NodeOptions{CVS: 1}},
		{N: 10, Options: NodeOptions{Hash: "sha256"}},
		{N: 10, Options: NodeOptions{MonitorPeriod: -time.Second}},
		{N: 10, Addr: ids.Sim(99).String()}, // a transport bound to another identity
	}
	for i, cfg := range bad {
		tr := listen(100 + i)
		if cfg.Addr == "" {
			cfg.Addr = ids.Sim(100 + i).String()
		}
		cfg.Transport = tr
		s, err := NewService(cfg)
		if s != nil || !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("bad[%d] should have failed to construct under ErrInvalidConfig: %v", i, err)
		}
		// A rejected config leaves an injected transport open and the
		// caller's to close.
		if err := tr.Close(); err != nil {
			t.Errorf("bad[%d]: closing the caller's transport: %v", i, err)
		}
	}
}

// TestNewServiceAppliesNodeOptions: every NodeOptions field a node runs
// under reaches a live Service's node, the ablation knobs included.
func TestNewServiceAppliesNodeOptions(t *testing.T) {
	net := memnet.New(memnet.Config{Seed: 1})
	defer net.Close()
	tr, err := net.Listen(ids.Sim(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewService(ServiceConfig{Addr: ids.Sim(1).String(), Transport: tr, N: 10, Options: NodeOptions{
		CVS: 9, Period: 2 * time.Second, MonitorPeriod: 3 * time.Second, Forgetful: true, ForgetfulTau: time.Minute,
		ForgetfulC: 2, PR2: true, DisableReshuffle: true, RejoinFullWeight: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	c := s.node.Config()
	got := []any{c.CVS, c.Period, c.MonitorPeriod, c.Forgetful, c.ForgetfulTau, c.ForgetfulC, c.PR2, c.DisableReshuffle, c.RejoinFullWeight}
	want := []any{9, 2 * time.Second, 3 * time.Second, true, time.Minute, 2.0, true, true, true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the node runs under %v, want %v", got, want)
	}
}

// coreOwned lists the node configuration fields NodeOptions sets
// (through coreConfig), as a node runs under them: defaults applied.
func coreOwned(c core.Config) []any {
	return []any{c.CVS, c.Period, c.MonitorPeriod, c.PR2, c.Forgetful, c.ForgetfulTau, c.ForgetfulC, c.DisableReshuffle, c.RejoinFullWeight}
}

// TestServiceAndClusterNodesAgree: for any NodeOptions — all defaults,
// then random draws of every knob — a Service's node and a simulated
// cluster's node run under the same value of every field NodeOptions
// sets: a knob that reaches one path and not the other fails here.
func TestServiceAndClusterNodesAgree(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(1))
	net := memnet.New(memnet.Config{Seed: 1})
	defer net.Close()
	for i := 0; i < 24; i++ {
		opts := NodeOptions{Hash: HashFast}
		if i > 0 {
			pick := func() bool { return rng.Intn(2) == 0 }
			if pick() {
				opts.CVS = 2 + rng.Intn(20)
			} else if pick() {
				opts.Variant = Variant(1 + rng.Intn(int(VariantDC)))
			}
			if pick() {
				opts.Period = time.Duration(1+rng.Intn(120)) * time.Second
			}
			if pick() {
				opts.MonitorPeriod = time.Duration(1+rng.Intn(120)) * time.Second
			}
			if pick() {
				opts.ForgetfulTau = time.Duration(1+rng.Intn(10)) * time.Minute
			}
			if pick() {
				opts.ForgetfulC = 0.5 + rng.Float64()
			}
			opts.PR2, opts.Forgetful, opts.DisableReshuffle, opts.RejoinFullWeight = pick(), pick(), pick(), pick()
		}
		tr, err := net.Listen(ids.Sim(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewService(ServiceConfig{Addr: tr.ID().String(), Transport: tr, N: n, Options: opts, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(ClusterConfig{N: n, Seed: 1, Options: opts}, NewSTATModel(n))
		if err != nil {
			t.Fatal(err)
		}
		c.Run(time.Minute) // the population's births span the first minute
		got, want := coreOwned(s.node.Config()), coreOwned(c.memberAt(0).node.Config())
		if !reflect.DeepEqual(got, want) {
			t.Errorf("options %+v: the Service's node runs under %v, the cluster's under %v", opts, got, want)
		}
		s.Stop()
	}
}

// TestNodeConfigIsWhatInitWasGiven: a simulated node's Config is what
// Birth gave Init — its own identity, transport, generator and worker
// pool, the options with their defaults, Overreport exactly where the
// node's first draw put it, the collusion hooks exactly on colluders —
// for honest nodes, overreporters and colluders alike; and only the
// honest share one Config.
func TestNodeConfigIsWhatInitWasGiven(t *testing.T) {
	cfg := ClusterConfig{
		N: 60, Seed: 3, OverreportFraction: 0.3, Options: NodeOptions{PR2: true, Hash: HashFast},
		Collusion: &CollusionConfig{Fraction: 0.2, SuppressPings: true, ForgedAvail: 0},
	}
	c, err := NewCluster(cfg, NewSTATModel(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(time.Minute) // the population's births span the first minute
	defaulted := cfg.Options.coreConfig(cfg.N)
	defaulted.ID, defaulted.Scheme, defaulted.Transport, defaulted.Rand = ids.Sim(0), c.Scheme(), &sentNowhere{}, sim.CompactRand(1)
	ref, err := core.NewNode(defaulted)
	if err != nil {
		t.Fatal(err)
	}
	want := coreOwned(ref.Config())
	roles := map[string]int{}
	for idx := 0; idx < cfg.N; idx++ {
		m := c.memberAt(idx)
		got := m.node.Config()
		overreport := sim.CompactRand(cfg.Seed^(int64(idx)+1)*0x5851F42D4C957F2D).Float64() < cfg.OverreportFraction
		colluder := c.IsColluder(idx)
		rngAt := uintptr(unsafe.Pointer(got.Rand)) - uintptr(unsafe.Pointer(&m.rng))
		switch {
		case got.ID != c.IDOf(idx) || got.Scheme != c.Scheme() || got.Transport != core.Transport(m) || got.Pool != core.Pool(m.ws):
			t.Errorf("node %d: identity %v, scheme, transport or pool not its own", idx, got.ID)
		case rngAt >= unsafe.Sizeof(m.rng):
			t.Errorf("node %d: its generator lies outside its block's", idx)
		case !reflect.DeepEqual(coreOwned(got), want):
			t.Errorf("node %d runs under %v, want %v", idx, coreOwned(got), want)
		case got.Overreport != overreport || (got.SuppressMonPing != nil) != colluder || (got.ForgeReport != nil) != colluder:
			t.Errorf("node %d: overreport %t, hooks %t, want %t, %t", idx, got.Overreport, got.ForgeReport != nil, overreport, colluder)
		}
		if colluder {
			victim, fellow := c.IDOf(0), c.IDOf(cfg.N-1)
			if !got.SuppressMonPing(victim) || got.SuppressMonPing(fellow) {
				t.Errorf("colluder %d does not spare exactly its fellows' pings", idx)
			}
			if est, ok := got.ForgeReport(victim, 0.5, true); est != 0 || !ok {
				t.Errorf("colluder %d reports %v, %t for a victim, want the forged 0", idx, est, ok)
			}
		}
		shared := reflect.ValueOf(&m.node).Elem().FieldByName("cfg").Pointer() == uintptr(unsafe.Pointer(&m.ws.cfg))
		role := map[bool]string{true: "attacker", false: "honest"}[overreport || colluder]
		if shared != (role == "honest") {
			t.Errorf("node %d (%s) shares its worker's Config: %t", idx, role, shared)
		}
		roles[role]++
		if overreport {
			roles["overreporter"]++
		}
		if colluder {
			roles["colluder"]++
		}
	}
	if roles["honest"] == 0 || roles["overreporter"] == 0 || roles["colluder"] == 0 {
		t.Fatalf("gate measured nothing: roles %v", roles)
	}
}

// sentNowhere is a core.Transport that drops every message.
type sentNowhere struct{}

func (*sentNowhere) Send(ids.ID, *core.Message) {}
