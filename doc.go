// Package avmon is a Go implementation of AVMON — the availability
// monitoring overlay of Morales & Gupta, "AVMON: Optimal and Scalable
// Discovery of Consistent Availability Monitoring Overlays for
// Distributed Systems" (ICDCS 2007).
//
// AVMON selects, for every node x, a pinging set PS(x) of nodes that
// monitor x's long-term availability, and discovers those monitors
// scalably. Selection uses the consistent hash condition
// H(y, x) ≤ K/N, which is simultaneously:
//
//   - consistent: the relation never changes under churn,
//   - verifiable: any third node can recompute it, so nodes cannot
//     advertise colluders as their monitors, and
//   - random: monitors are uniform and pairwise uncorrelated.
//
// Discovery runs on a lightweight coarse overlay: each node keeps a
// small random coarse view, periodically swaps views with one member,
// and checks the consistency condition across the union — notifying
// any matched pair. Three optimal coarse-view sizes (MD, DC, MDC)
// minimize different combinations of memory/bandwidth, discovery time,
// and computation.
//
// # Quick start (simulated cluster)
//
// A Cluster is a fully simulated deployment: a deterministic
// discrete-event engine, a simulated network, a churn model, and one
// protocol node per host. Everything is a pure function of the seed:
//
//	cfg := avmon.ClusterConfig{N: 200, Seed: 1}
//	cl, err := avmon.NewCluster(cfg, avmon.NewSTATModel(200))
//	if err != nil { ... }
//	cl.Run(30 * time.Minute)     // simulated time, sub-second wall time
//	ps := cl.MonitorsOf(0)       // who monitors node 0?
//	st := cl.Stats(0)            // traffic, discovery times, uptime
//
// # Heterogeneous WAN networks
//
// The default network is a constant 50 ms per message. Realistic
// wide-area scenarios replace it with a heterogeneous latency model
// and a loss process (ClusterConfig.LatencyModel / LossModel):
//
//	lat, _ := avmon.NewLognormalLatency(
//	    5*time.Millisecond,   // floor: propagation delay, provable minimum
//	    60*time.Millisecond,  // median of the queueing tail
//	    0.6,                  // lognormal shape
//	    2*time.Second)        // cap
//	loss, _ := avmon.NewGilbertElliottLoss(0.02, 0.25, 0.001, 0.3)
//	cl, err := avmon.NewCluster(avmon.ClusterConfig{
//	    N: 200, Seed: 1,
//	    LatencyModel: lat, LossModel: loss,
//	}, avmon.NewSTATModel(200))
//
// Every model declares a provable floor (LatencyModel.MinLatency).
// With Shards > 1 the run is partitioned round-robin across parallel
// engine shards that advance in lockstep windows one floor wide — and
// the results are byte-identical to the serial run at any shard
// count, because all latency and loss randomness is drawn from the
// sending node's private lane stream (see DESIGN.md, "Parallel
// simulation" and "Network models"). Sharding is a wall-clock choice
// that pays only when a window holds hundreds of events (N in the
// tens of thousands at the default 50 ms); a 200-node run, or any run
// under a 5 ms floor, is faster serial (EXPERIMENTS.md, "Sharded at 2
// cores").
//
// # Determinism contract
//
// For one ClusterConfig (including Seed), every protocol-observable
// quantity — monitor sets, traffic counters, discovery times, event
// counts — is identical across runs, across Shards values, and across
// experiment-engine parallelism. Randomness is never shared between
// execution lanes; anything that would observe scheduler interleaving
// is either owned by the control lane or forbidden (the engine panics
// on violations).
//
// # Real deployment
//
// Service runs the same protocol over UDP; see NewService and
// cmd/avmon-node. Because the simulated and real runners execute the
// identical single-threaded core (internal/core), simulation results
// transfer to deployments by construction. Service.QueryBatch is the
// one availability resolver — report, verify, ask every verified
// monitor at once, average; QueryAvailability is its one-subject form.
//
// Subpackages under internal implement the protocol core, the serial
// and sharded discrete-event engines (internal/sim), the simulated
// network and its WAN models (internal/simnet), churn models and trace
// substrates, the baseline schemes the paper compares against, and the
// experiment sweeps every table and figure in the paper is a view of,
// plus the beyond-paper scale, wan, chaos and realnet harnesses (see
// DESIGN.md and EXPERIMENTS.md).
package avmon
