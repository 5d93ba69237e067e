//go:build !unix

package main

import "time"

// processCPU is not measured here; service.cpu_us_per_node_period reads 0.
func processCPU() time.Duration { return 0 }
