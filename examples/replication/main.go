// Replication: availability-aware replica placement on top of AVMON.
//
// Godfrey et al. (SIGCOMM 2006), cited in the paper's introduction,
// showed that replica selection informed by per-node availability
// history beats availability-agnostic selection. This example
// reproduces that effect: after AVMON has monitored a churned system
// for a while, we place file replicas on (a) the nodes with the
// highest monitor-estimated availability and (b) uniformly random
// nodes, then measure how often each replica set keeps the file
// available over the following hours.
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"avmon"
)

const replicas = 5

func main() {
	if err := run(os.Stdout, 300, 6*time.Hour, 72); err != nil {
		fmt.Fprintln(os.Stderr, "replication:", err)
		os.Exit(1)
	}
}

// run warms an n-node heterogeneous system for warmup, places the two
// replica sets, and samples their availability every 10 minutes
// samples times.
func run(w io.Writer, n int, warmup time.Duration, samples int) error {
	// Half the population is stable, half flaps between up and down —
	// the regime where availability history predicts the future.
	model, err := avmon.NewMixedModel(n/2, n/2)
	if err != nil {
		return err
	}
	cluster, err := avmon.NewCluster(avmon.ClusterConfig{N: n, Seed: 7}, model)
	if err != nil {
		return err
	}

	// Let AVMON discover the overlay and accumulate availability
	// history through several churn cycles.
	fmt.Fprintf(w, "warming up: %v of monitoring under churn...\n", warmup)
	cluster.Run(warmup)

	// Estimate each node's availability as the system reports it: the
	// mean of its verified monitors' estimates (Cluster.Availability).
	type scored struct {
		idx int
		est float64
	}
	var candidates []scored
	for i := 0; i < cluster.Size(); i++ {
		est, ok := cluster.Availability(i, 0)
		if ok {
			candidates = append(candidates, scored{i, est})
		}
	}
	if len(candidates) < replicas*2 {
		return fmt.Errorf("too few monitored nodes (%d)", len(candidates))
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].est > candidates[j].est })

	smart := make([]int, 0, replicas)
	for _, s := range candidates[:replicas] {
		smart = append(smart, s.idx)
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]int, 0, replicas)
	for _, i := range rng.Perm(len(candidates))[:replicas] {
		random = append(random, candidates[i].idx)
	}

	fmt.Fprintf(w, "placed %d replicas by estimated availability: %v\n", replicas, smart)
	fmt.Fprintf(w, "placed %d replicas uniformly at random:       %v\n", replicas, random)

	// Sample both replica sets every 10 minutes.
	count, smartUp, randomUp, smartAvail, randomAvail := 0, 0, 0, 0, 0
	for t := 0; t < samples; t++ {
		cluster.Run(10 * time.Minute)
		count++
		if c := aliveCount(cluster, smart); c > 0 {
			smartAvail++
			smartUp += c
		}
		if c := aliveCount(cluster, random); c > 0 {
			randomAvail++
			randomUp += c
		}
	}
	fmt.Fprintf(w, "\nover %d samples spanning %v simulated:\n",
		count, time.Duration(samples)*10*time.Minute)
	fmt.Fprintf(w, "  availability-aware: file reachable %5.1f%% of the time, avg %.1f/%d replicas up\n",
		100*float64(smartAvail)/float64(count), float64(smartUp)/float64(count), replicas)
	fmt.Fprintf(w, "  random placement:   file reachable %5.1f%% of the time, avg %.1f/%d replicas up\n",
		100*float64(randomAvail)/float64(count), float64(randomUp)/float64(count), replicas)
	if smartUp <= randomUp {
		fmt.Fprintln(w, "\nnote: random won this seed; availability-aware placement wins on average")
	}
	return nil
}

func aliveCount(c *avmon.Cluster, set []int) int {
	up := 0
	for _, idx := range set {
		if c.Stats(idx).Alive {
			up++
		}
	}
	return up
}
