package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// memUsage is one reading of the process's memory: a host-measured
// sweep takes it around every point, and every artifact's host section
// ends with one.
type memUsage struct {
	// Go heap now, cumulative allocation, and completed GC cycles
	// (runtime.MemStats HeapAlloc / TotalAlloc / NumGC).
	HeapAllocMB  float64 `json:"heap_alloc_mb"`
	TotalAllocMB float64 `json:"total_alloc_mb"`
	NumGC        uint32  `json:"num_gc"`
	// Peak resident set size of the whole process (Linux VmHWM;
	// 0 = not measured on this platform).
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

func readMemUsage() memUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memUsage{
		HeapAllocMB:  float64(ms.HeapAlloc) / (1 << 20),
		TotalAllocMB: float64(ms.TotalAlloc) / (1 << 20),
		NumGC:        ms.NumGC,
		PeakRSSMB:    peakRSSMB(),
	}
}

// HostStats is the host section of every BENCH artifact: the machine
// shape and the process's memory and GC behaviour when the artifact is
// assembled. All of it describes the machine that produced the file and
// varies run to run; consumers comparing artifacts across PRs must
// never gate on it, only track it (peak RSS and GC counts are the perf
// trajectory the memory-diet work is measured by).
type HostStats struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	HostCores  int `json:"host_cores"`
	memUsage
}

func collectHostStats() HostStats {
	return HostStats{GOMAXPROCS: runtime.GOMAXPROCS(0), HostCores: runtime.NumCPU(), memUsage: readMemUsage()}
}

// peakRSSMB reads the process's peak resident set size from
// /proc/self/status (Linux). It returns 0 where the file or the VmHWM
// field is unavailable; the JSON consumer treats 0 as "not measured".
// Note the value is process-wide: with parallel sweep points it
// reflects the whole sweep, not one cluster.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// envelopeSchema versions the envelope; a consumer that finds another
// number is reading a layout it does not know.
const envelopeSchema = 1

// envelope is the one layout of every BENCH_*.json: what was asked
// (experiment, seed, scale, shards), the system sizes it resolved to,
// the host that produced it, then what the harness itself adds —
// params, the constants its points are to be read against, and points,
// its result rows (ScalePoint, WanPoint, ChaosPoint, RealnetPoint).
type envelope struct {
	Schema     int       `json:"schema"`
	Experiment string    `json:"experiment"`
	Seed       int64     `json:"seed"`
	Scale      float64   `json:"scale"`
	Ns         []int     `json:"ns"`
	Shards     int       `json:"shards"`
	Host       HostStats `json:"host"`
	Params     any       `json:"params,omitempty"`
	Points     any       `json:"points"`
}

// artifact renders experiment id's one machine-readable file, the way
// every BENCH_*.json is written: the envelope, indented,
// newline-terminated.
func artifact(o Options, id, name string, ns []int, params, points any) (map[string][]byte, error) {
	data, err := json.MarshalIndent(envelope{
		Schema: envelopeSchema, Experiment: id, Seed: o.Seed, Scale: o.Scale, Ns: ns, Shards: o.Shards,
		Host: collectHostStats(), Params: params, Points: points,
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("%s: marshal artifact: %w", id, err)
	}
	return map[string][]byte{name: append(data, '\n')}, nil
}
