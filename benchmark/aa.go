package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// exactOnSims are the protocol statistics that a simulator workload must
// reproduce bit for bit when the same binary runs the same seed again.
var exactOnSims = map[string]bool{"bytes_per_node_period": true, "hash_checks_per_node_period": true}

// runAA is the -aa mode: n alternating pairs of full untraced runs of
// this same binary. Pair i runs seed+i-1 on both sides (A and B), so the
// two sides see the same inputs and the accepting driver's ten different
// seeds at once. It prints one row per workload and end-to-end metric:
// both medians and quartiles, each side's spread (interquartile distance
// over median, as the driver computes it, host noise and seed-to-seed
// variation together), how much worse B's median is than A's, the
// same-seed noise (median over pairs of |A-B|/A: host noise alone), and
// PASS/FAIL against the metric's bound. setup_s is exempt from the spread
// rule, as it is in the driver. On the simulators the protocol statistics
// of a pair must also be exactly equal. A second table gives the same
// figures, without a verdict, for the demoted per-layer metrics: the
// evidence they are per-layer on.
func runAA(n int, workload string, seed int64, seconds float64, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	var names []string
	for _, w := range workloads {
		if workload == "all" || workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", workload)
		return 2
	}
	// values[side][workload][metric] collects one value per pair, in order.
	values := [2]map[string]map[string][]float64{{}, {}}
	for pair := 1; pair <= n; pair++ {
		for turn := 0; turn < 2; turn++ {
			side := (pair + turn) % 2 // alternate which side goes first
			for _, name := range names {
				line, info, err := runChild(exe, name, seed+int64(pair)-1, seconds, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: -aa: %s seed %d: %v\n", name, seed+int64(pair)-1, err)
					return 1
				}
				if values[side][name] == nil {
					values[side][name] = map[string][]float64{}
				}
				// Every run's values go to standard error as they come, so an
				// interrupted -aa (ten pairs take 45 minutes) loses nothing.
				fmt.Fprintf(stderr, "aa: pair %d/%d side %c %s", pair, n, 'A'+side, name)
				for _, d := range endToEnd {
					v := line.Metrics[d.name].Value
					values[side][name][d.name] = append(values[side][name][d.name], v)
					fmt.Fprintf(stderr, " %s=%.6g", d.name, v)
				}
				for _, d := range perLayer {
					if v, ok := info[d.name]; ok {
						values[side][name][d.name] = append(values[side][name][d.name], v)
						fmt.Fprintf(stderr, " %s=%.6g", d.name, v)
					}
				}
				fmt.Fprintln(stderr)
			}
		}
	}

	fmt.Fprintf(stdout, "| workload | metric | unit | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B worse by | same-seed noise | bound | |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	failed := false
	for _, name := range names {
		for _, d := range endToEnd {
			a, b := values[0][name][d.name], values[1][name][d.name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			sa, sb := (a3-a1)/ma, (b3-b1)/mb
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			noise := make([]float64, len(a))
			exact := true
			for i := range a {
				noise[i] = math.Abs(a[i]-b[i]) / a[i]
				exact = exact && a[i] == b[i]
			}
			verdict := "PASS"
			if worse > d.bound || (d.name != "setup_s" && (sa > d.bound || sb > d.bound)) {
				verdict = "FAIL"
			}
			if strings.HasPrefix(name, "sim_") && exactOnSims[d.name] {
				if exact {
					verdict += " (exact)"
				} else {
					verdict = "FAIL (not exact)"
				}
			}
			failed = failed || strings.HasPrefix(verdict, "FAIL")
			fmt.Fprintf(stdout, "| %s | %s | %s | %.5g [%.5g, %.5g] | %.1f%% | %.5g [%.5g, %.5g] | %.1f%% | %+.1f%% | %.1f%% | %.0f%% | %s |\n",
				name, d.name, d.unit, ma, a1, a3, sa*100, mb, b1, b3, sb*100, worse*100, median(noise)*100, d.bound*100, verdict)
		}
	}
	fmt.Fprintf(stdout, "\nNot gated (per-layer):\n\n")
	fmt.Fprintf(stdout, "| workload | metric | unit | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B worse by | same-seed noise |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|\n")
	for _, name := range names {
		for _, d := range perLayer {
			a, b := values[0][name][d.name], values[1][name][d.name]
			if len(a) == 0 || len(a) != len(b) {
				continue
			}
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			noise := make([]float64, len(a))
			for i := range a {
				noise[i] = math.Abs(a[i]-b[i]) / a[i]
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.5g [%.5g, %.5g] | %.1f%% | %.5g [%.5g, %.5g] | %.1f%% | %+.1f%% | %.1f%% |\n",
				name, d.name, d.unit, ma, a1, a3, (a3-a1)/ma*100, mb, b1, b3, (b3-b1)/mb*100, worse*100, median(noise)*100)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runChild runs one untraced workload run in a child process and parses
// its result line and its info lines (name → value).
func runChild(exe, workload string, seed int64, seconds float64, stderr io.Writer) (*outLine, map[string]float64, error) {
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, err
	}
	var last string
	info := map[string]float64{}
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		s := strings.TrimSpace(sc.Text())
		if s == "" {
			continue
		}
		last = s
		if f := strings.Fields(s); len(f) == 5 && f[0] == "info" {
			if v, err := strconv.ParseFloat(f[3], 64); err == nil {
				info[f[2]] = v
			}
		}
	}
	var line outLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, nil, fmt.Errorf("result line: %w", err)
	}
	if !line.Correct {
		return nil, nil, fmt.Errorf("run was not correct")
	}
	return &line, info, nil
}
