package avmon

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"avmon/internal/core"
	"avmon/internal/ids"
	"avmon/internal/netstack"
	"avmon/internal/sim"
)

// Transport is the pluggable datagram layer beneath a Service: the
// protocol core's best-effort Send, a blocking receive loop, and a
// Close that unblocks it. netstack.UDPTransport (real UDP sockets)
// and memnet.Transport (in-process loopback with injected latency and
// loss) both implement it, so the same Service — and the same
// conformance assertions — run over either network.
type Transport interface {
	core.Transport
	// Serve reads datagrams and invokes handle for each valid message
	// until Close; malformed datagrams are counted and dropped.
	Serve(handle func(from ids.ID, m *core.Message)) error
	// Close shuts the transport down and unblocks Serve.
	Close() error
}

// Clock supplies a Service's notion of protocol time: Now stamps
// protocol events (joins, ticks, incoming messages) and Ticker drives
// the periodic protocol loops. Injecting a clock lets harnesses and
// tests accelerate or script protocol periods; nil selects the wall
// clock (time.Now / time.NewTicker). The query plane always uses wall
// time for its network deadlines.
type Clock interface {
	// Now returns the current protocol time.
	Now() time.Time
	// Ticker returns a channel delivering a tick roughly every period
	// and a stop function releasing the ticker's resources.
	Ticker(period time.Duration) (<-chan time.Time, func())
}

// wallClock is the default Clock: real time.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Ticker(period time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(period)
	return t.C, t.Stop
}

// ServiceConfig parameterizes a real-network AVMON node.
type ServiceConfig struct {
	// Addr is this node's bind address and identity, "a.b.c.d:port".
	Addr string
	// Bootstrap is an existing node's address, empty for the first
	// node of a deployment.
	Bootstrap string
	// N is the expected stable system size (the protocol parameter).
	N int
	// Options are the per-node protocol knobs. Hash defaults to MD5
	// (the paper's choice) for real deployments.
	Options NodeOptions
	// Seed seeds the node's private randomness; 0 uses the clock.
	Seed int64
	// QueryCache enables the bounded availability-answer cache on the
	// query path: a verified report younger than the cache TTL is
	// served without any network traffic. Cached reports are shared
	// between callers and must be treated as read-only.
	QueryCache bool
	// QueryCacheTTL overrides the cache's answer lifetime; 0 ties it
	// to the node's monitoring period (an estimate cannot change
	// faster than monitors sample, so that is the natural freshness
	// horizon).
	QueryCacheTTL time.Duration
	// QueryCacheEntries bounds the cache; 0 selects
	// DefaultAnswerCacheEntries.
	QueryCacheEntries int
	// Transport overrides the datagram layer. Nil binds a real UDP
	// socket on Addr (netstack.Listen); non-nil injects any Transport
	// — e.g. a memnet loopback endpoint — which must be bound to the
	// same identity as Addr. Once NewService succeeds the Service owns
	// the transport and closes it on Stop; if NewService fails, an
	// injected transport is left open for the caller to close.
	Transport Transport
	// Clock overrides the Service's protocol time source (nil = the
	// wall clock). Harnesses inject accelerated clocks to compress
	// protocol periods without touching the system clock.
	Clock Clock
}

// Service runs one AVMON node over UDP: a receive loop plus protocol
// and monitoring tickers, all serialized onto the single-threaded
// protocol core. Create with NewService, then Start; Stop shuts down
// the socket and all goroutines.
type Service struct {
	cfg       ServiceConfig
	node      *core.Node
	transport Transport
	clock     Clock
	bootstrap ids.ID

	// disp routes query responses to their callers by correlation key;
	// answers holds the optional bounded TTL answer cache (nil when
	// disabled). nonceBase/nonceCtr generate per-query nonces.
	disp      *respDispatcher
	answers   *AnswerCache
	nonceBase uint64
	nonceCtr  uint64 // atomic

	mu      sync.Mutex // serializes node access
	started bool
	stopped bool

	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// Validate reports whether NewService would accept the configuration,
// wrapping ErrInvalidConfig when not; it binds and starts nothing.
func (cfg ServiceConfig) Validate() error {
	if cfg.N <= 0 {
		return badConfig("ServiceConfig.N must be positive, got %d", cfg.N)
	}
	id, err := ids.Parse(cfg.Addr)
	if err != nil {
		return badConfig("bad Addr: %v", err)
	}
	if cfg.Bootstrap != "" {
		if _, err := ids.Parse(cfg.Bootstrap); err != nil {
			return badConfig("bad Bootstrap: %v", err)
		}
	}
	if cfg.QueryCacheTTL < 0 || cfg.QueryCacheEntries < 0 {
		return badConfig("negative QueryCacheTTL %v or QueryCacheEntries %d (0 = default)",
			cfg.QueryCacheTTL, cfg.QueryCacheEntries)
	}
	if ident, ok := cfg.Transport.(interface{ ID() ids.ID }); ok && ident.ID() != id {
		return badConfig("injected transport is bound to %v, not Addr %v", ident.ID(), id)
	}
	return cfg.Options.validate(cfg.N)
}

// NewService validates the configuration (see Validate) and binds the
// UDP socket.
func NewService(cfg ServiceConfig) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	id := ids.MustParse(cfg.Addr)
	var bootstrap ids.ID
	if cfg.Bootstrap != "" {
		bootstrap = ids.MustParse(cfg.Bootstrap)
	}
	if cfg.Options.Hash == "" {
		cfg.Options.Hash = HashMD5
	}
	scheme, err := NewSelector(cfg.Options.Hash, cfg.Options.kFor(cfg.N), cfg.N)
	if err != nil {
		return nil, err
	}
	transport := cfg.Transport
	ownsTransport := false
	if transport == nil {
		t, err := netstack.Listen(id)
		if err != nil {
			return nil, err
		}
		transport = t
		ownsTransport = true
	}
	// From here on every failure must release a transport we created,
	// or the socket leaks and the address stays unbindable.
	fail := func(err error) (*Service, error) {
		if ownsTransport {
			_ = transport.Close()
		}
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	nodeCfg := cfg.Options.coreConfig(cfg.N)
	nodeCfg.ID, nodeCfg.Scheme, nodeCfg.Transport = id, scheme, transport
	rng := new(sim.CompactRNG) // all node access is serialized by s.mu
	rng.Seed(seed)
	nodeCfg.Rand = rng
	node, err := core.NewNode(nodeCfg)
	if err != nil {
		return fail(err)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = wallClock{}
	}
	s := &Service{
		cfg:       cfg,
		node:      node,
		transport: transport,
		clock:     clock,
		bootstrap: bootstrap,
		disp:      newRespDispatcher(),
		nonceBase: mix64(uint64(seed)),
		stop:      make(chan struct{}),
	}
	if cfg.QueryCache {
		ttl := cfg.QueryCacheTTL
		if ttl <= 0 {
			ttl = node.Config().MonitorPeriod
		}
		s.answers = NewAnswerCache(ttl, cfg.QueryCacheEntries)
	}
	return s, nil
}

// nextNonce returns a fresh query-correlation nonce. Nonces are drawn
// from a mixed atomic counter so concurrent queries never collide, and
// never zero (protocol messages leave the nonce field zero).
func (s *Service) nextNonce() uint64 {
	n := mix64(s.nonceBase + atomic.AddUint64(&s.nonceCtr, 1))
	if n == 0 {
		n = 1
	}
	return n
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mix, so
// sequential counter values map to well-spread nonces.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ID returns the service's identity.
func (s *Service) ID() ID { return s.node.ID() }

// Start joins the system and launches the receive loop and protocol
// tickers. It returns immediately. Starting twice, or starting after
// Stop, returns an error without launching anything.
func (s *Service) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("avmon: service already started")
	}
	if s.stopped {
		s.mu.Unlock()
		return fmt.Errorf("avmon: service already stopped")
	}
	s.started = true
	s.node.Join(s.clock.Now(), s.bootstrap)
	cfg := s.node.Config()
	// All WaitGroup Adds happen inside this critical section: a
	// concurrent Stop can only observe started=true after we release
	// the lock, so its Wait never races an Add.
	s.done.Add(3)
	s.mu.Unlock()

	go func() {
		defer s.done.Done()
		_ = s.transport.Serve(s.receive)
	}()
	go s.runTicker(cfg.Period, s.node.Tick)
	go s.runTicker(cfg.MonitorPeriod, s.node.MonitorTick)
	return nil
}

// receive takes one datagram under s.mu. Query responses go to the
// dispatcher, which hands each to the waiter keyed by its correlation
// (individual queries subscribe per key rather than re-pointing a hook,
// which raced under concurrent queries), under the guards Handle applies
// at its entry: the node is up, and the sender is somebody. Everything
// else is the node's.
func (s *Service) receive(from ID, m *core.Message) {
	s.mu.Lock()
	switch m.Type {
	case core.MsgReportResp, core.MsgAvailBatchResp:
		if s.started && !s.stopped && !from.IsNone() {
			s.disp.dispatch(from, m)
		}
	default:
		s.node.Handle(from, m, s.clock.Now())
	}
	s.mu.Unlock()
}

// runTicker drives one protocol ticker until Stop. The caller accounts
// for it in the done WaitGroup before spawning.
func (s *Service) runTicker(period time.Duration, fn func(time.Time)) {
	defer s.done.Done()
	ticks, stop := s.clock.Ticker(period)
	defer stop()
	for {
		select {
		case <-ticks:
			s.mu.Lock()
			fn(s.clock.Now())
			s.mu.Unlock()
		case <-s.stop:
			return
		}
	}
}

// Stop leaves the system and shuts down all goroutines and the socket.
// It is idempotent: repeated Stops, Stop before Start, and Stop racing
// Start are all safe (a Start losing the race returns an error instead
// of launching).
func (s *Service) Stop() {
	s.mu.Lock()
	wasStopped := s.stopped
	s.stopped = true
	if !wasStopped && s.started {
		s.node.Leave(s.clock.Now())
	}
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	_ = s.transport.Close() // idempotent at the socket layer
	s.done.Wait()
}

// QueryCacheStats returns the answer-cache counters; ok is false when
// the cache is disabled.
func (s *Service) QueryCacheStats() (stats AnswerCacheStats, ok bool) {
	if s.answers == nil {
		return AnswerCacheStats{}, false
	}
	return s.answers.Stats(), true
}

// DroppedResponses reports how many uncorrelated query responses the
// dispatcher discarded: stale answers arriving after their query timed
// out, or replays whose nonce matched no outstanding query.
func (s *Service) DroppedResponses() uint64 { return s.disp.staleCount() }

// Monitors returns this node's currently discovered pinging set.
func (s *Service) Monitors() []ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node.PS()
}

// Targets returns the nodes this node currently monitors.
func (s *Service) Targets() []ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node.TS()
}

// ReportMonitors applies the l-out-of-K reporting policy.
func (s *Service) ReportMonitors(count int) []ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node.ReportMonitors(count)
}

// EstimateOf returns this node's availability estimate for a node it
// monitors.
func (s *Service) EstimateOf(target ID) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node.EstimateOf(target)
}

// Stats returns a coarse protocol snapshot.
func (s *Service) Stats() (psSize, tsSize, cvSize int, hashChecks uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node.PSLen(), s.node.TSLen(), s.node.CVLen(), s.node.HashChecks()
}
