// Multicast: availability-aware parent selection in an overlay tree.
//
// AVCast (Pongthawornkamol & Gupta, SRDS 2006) — the system AVMON's
// monitoring relation comes from — selects overlay multicast parents
// by availability so that receivers behind stable parents see higher
// delivery ratios. This example builds two multicast trees over a
// churned system, one picking parents with the highest
// monitor-estimated availability and one picking uniformly at random,
// then compares the fraction of alive nodes whose path to the root is
// fully alive.
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

const degree = 6 // max children per parent

func main() {
	if err := run(os.Stdout, 250, 5*time.Hour, 48); err != nil {
		fmt.Fprintln(os.Stderr, "multicast:", err)
		os.Exit(1)
	}
}

// run warms an n-node heterogeneous system for warmup, builds the two
// trees, and samples connectivity every 10 minutes samples times.
func run(w io.Writer, n int, warmup time.Duration, samples int) error {
	// A heterogeneous population: stable hosts make good interior tree
	// nodes, flaky ones should be leaves.
	model, err := avmon.NewMixedModel(n/2, n/2)
	if err != nil {
		return err
	}
	cluster, err := avmon.NewCluster(avmon.ClusterConfig{N: n, Seed: 11}, model)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "warming up: %v of monitoring under churn...\n", warmup)
	cluster.Run(warmup)

	estimates := make(map[int]float64, cluster.Size())
	var members []int
	for i := 0; i < cluster.Size(); i++ {
		if !cluster.Stats(i).Alive {
			continue
		}
		members = append(members, i)
		if est, ok := cluster.Availability(i, 0); ok {
			estimates[i] = est
		} else {
			estimates[i] = 0.5 // unmonitored newcomers get a neutral prior
		}
	}
	if len(members) < 20 {
		return fmt.Errorf("too few alive members (%d)", len(members))
	}
	root := members[0]
	// Availability-aware tree: members attach in decreasing estimated
	// availability, so stable nodes form the interior and flaky nodes
	// become leaves.
	byAvail := append([]int(nil), members...)
	sort.SliceStable(byAvail, func(i, j int) bool {
		return estimates[byAvail[i]] > estimates[byAvail[j]]
	})
	smart := buildTree(byAvail, root)
	// Availability-agnostic tree: attachment order is random, so flaky
	// nodes end up in the interior too.
	rng := rand.New(rand.NewSource(3))
	shuffled := append([]int(nil), members...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	random := buildTree(shuffled, root)

	fmt.Fprintf(w, "built two %d-member trees rooted at node %d (max degree %d)\n\n",
		len(members), root, degree)

	// Sample connectivity every 10 minutes.
	count, smartOK, randomOK := 0, 0.0, 0.0
	for t := 0; t < samples; t++ {
		cluster.Run(10 * time.Minute)
		count++
		smartOK += deliveryRatio(cluster, smart, root)
		randomOK += deliveryRatio(cluster, random, root)
	}
	fmt.Fprintf(w, "average delivery ratio over %d samples (%v simulated):\n",
		count, time.Duration(samples)*10*time.Minute)
	fmt.Fprintf(w, "  availability-aware parents: %.3f\n", smartOK/float64(count))
	fmt.Fprintf(w, "  random parents:             %.3f\n", randomOK/float64(count))
	return nil
}

// buildTree attaches members breadth-first in the given order: early
// members fill the tree's interior, late members become leaves.
func buildTree(order []int, root int) map[int]int {
	parent := map[int]int{root: -1}
	children := map[int]int{}
	frontier := []int{root}
	var rest []int
	for _, m := range order {
		if m != root {
			rest = append(rest, m)
		}
	}
	for len(rest) > 0 && len(frontier) > 0 {
		var nextFrontier []int
		for _, p := range frontier {
			for children[p] < degree && len(rest) > 0 {
				child := rest[0]
				rest = rest[1:]
				parent[child] = p
				children[p]++
				nextFrontier = append(nextFrontier, child)
			}
		}
		frontier = nextFrontier
	}
	return parent
}

// deliveryRatio is the fraction of currently-alive tree members whose
// entire ancestor path to the root is alive.
func deliveryRatio(c *avmon.Cluster, parent map[int]int, root int) float64 {
	if !c.Stats(root).Alive {
		return 0
	}
	reachable, aliveMembers := 0, 0
	for m := range parent {
		if !c.Stats(m).Alive {
			continue
		}
		aliveMembers++
		ok := true
		for p := m; p != root; {
			p = parent[p]
			if p < 0 || !c.Stats(p).Alive {
				ok = false
				break
			}
		}
		if ok {
			reachable++
		}
	}
	if aliveMembers == 0 {
		return 0
	}
	return float64(reachable) / float64(aliveMembers)
}
