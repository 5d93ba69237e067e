// Overreporting: the collusion attack of Section 5.4 and why AVMON
// bounds its damage.
//
// A fraction of nodes act as dishonest monitors, reporting 100%
// availability for everything they monitor. Because monitor selection
// is random and verifiable, a victim cannot choose its colluders as
// monitors, and a querier averaging over several verified monitors is
// rarely fooled. This example measures the fraction of nodes whose
// measured availability is off by more than 0.2 as the overreporting
// fraction grows, and shows a fabricated monitor list being rejected.
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"avmon"
)

func main() {
	err := run(os.Stdout, 250, []float64{0, 0.10, 0.20}, 4*time.Hour, 30*time.Minute)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overreport:", err)
		os.Exit(1)
	}
}

// run sweeps the given overreporting fractions over one n-node churned
// system run for attackHorizon, then demonstrates third-party
// verification on a static system run for verifyHorizon.
func run(w io.Writer, n int, fracs []float64, attackHorizon, verifyHorizon time.Duration) error {
	fmt.Fprintf(w, "overreporting attack sweep (one %v SYNTH churn run, read at every fraction):\n", attackHorizon)
	cluster, err := attackRun(n, attackHorizon)
	if err != nil {
		return err
	}
	for _, frac := range fracs {
		affected, measured := misMeasured(cluster, frac)
		if measured == 0 {
			return fmt.Errorf("no measured nodes at fraction %.2f", frac)
		}
		fmt.Fprintf(w, "  %4.0f%% dishonest monitors → %d of %d nodes mis-measured by > 0.2 (%.1f%%)\n",
			frac*100, affected, measured, 100*float64(affected)/float64(measured))
	}

	// Verifiability: a node cannot claim its colluder is a monitor.
	cluster, err = avmon.NewCluster(avmon.ClusterConfig{N: n, Seed: 5}, avmon.NewSTATModel(n))
	if err != nil {
		return err
	}
	cluster.Run(verifyHorizon)
	subject := 0
	honest := cluster.ReportMonitors(subject, 3)
	// Find a node that is NOT a monitor of the subject — the colluder.
	var colluder avmon.ID
	for i := 1; i < n; i++ {
		id := cluster.IDOf(i)
		if !cluster.Scheme().Related(id, cluster.IDOf(subject)) {
			colluder = id
			break
		}
	}
	forged := append([]avmon.ID{colluder}, honest...)
	_, err = avmon.VerifyReport(cluster.Scheme(), cluster.IDOf(subject), forged, 1)
	fmt.Fprintf(w, "\nverifiability check: node %v claims colluder %v monitors it\n",
		cluster.IDOf(subject), colluder)
	if err == nil {
		return fmt.Errorf("forged report with colluder %v was accepted", colluder)
	}
	fmt.Fprintf(w, "  third-party verification rejects the report: %v\n", err)
	return nil
}

// attackRun simulates a churned system. A dishonest monitor lies only
// when asked for an estimate, so every overreporting fraction is read
// from this one run (misMeasured).
func attackRun(n int, horizon time.Duration) (*avmon.Cluster, error) {
	model, err := avmon.NewSYNTHModel(n, 0.3)
	if err != nil {
		return nil, err
	}
	cluster, err := avmon.NewCluster(avmon.ClusterConfig{N: n, Seed: 9}, model)
	if err != nil {
		return nil, err
	}
	cluster.Run(horizon)
	return cluster, nil
}

// misMeasured counts the alive nodes whose availability, read with the
// given fraction of overreporting monitors, is off by more than 0.2.
func misMeasured(cluster *avmon.Cluster, frac float64) (affected, measured int) {
	for i := 0; i < cluster.Size(); i++ {
		st := cluster.Stats(i)
		if !st.Alive || st.TrueAvailability() <= 0 {
			continue
		}
		est, ok := cluster.Availability(i, frac)
		if !ok {
			continue
		}
		measured++
		if math.Abs(est-st.TrueAvailability()) > 0.2 {
			affected++
		}
	}
	return affected, measured
}
