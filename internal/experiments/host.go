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

// HostStats is the shared host section of every BENCH artifact: a
// snapshot of the process's memory and GC behaviour taken when the
// artifact is assembled, plus the machine shape. All fields describe
// the machine that produced the file and vary run to run; consumers
// comparing artifacts across PRs must never gate on them, only track
// them (peak RSS and GC counts are the perf trajectory the memory-diet
// work is measured by).
type HostStats struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	HostCores  int `json:"host_cores"`

	// Go heap at collection time, cumulative allocation, and completed
	// GC cycles (runtime.MemStats HeapAlloc / TotalAlloc / NumGC).
	HeapAllocMB  float64 `json:"heap_alloc_mb"`
	TotalAllocMB float64 `json:"total_alloc_mb"`
	NumGC        uint32  `json:"num_gc"`

	// Peak resident set size of the whole process (Linux VmHWM;
	// 0 = not measured on this platform).
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// collectHostStats snapshots the process for an artifact's host
// section.
func collectHostStats() HostStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return HostStats{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		HostCores:    runtime.NumCPU(),
		HeapAllocMB:  float64(ms.HeapAlloc) / (1 << 20),
		TotalAllocMB: float64(ms.TotalAlloc) / (1 << 20),
		NumGC:        ms.NumGC,
		PeakRSSMB:    peakRSSMB(),
	}
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

// artifact renders v as the one machine-readable file of experiment id,
// the way every BENCH_*.json is written: indented, newline-terminated.
func artifact(id, name string, v any) (map[string][]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("%s: marshal artifact: %w", id, err)
	}
	return map[string][]byte{name: append(data, '\n')}, nil
}
