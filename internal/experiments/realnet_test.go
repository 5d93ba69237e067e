package experiments

import "testing"

// TestUDPPortBlocks: for seeds 1–64, every port of the UDP arm's block
// at the default deployment size, on every attempt, is a bindable
// unprivileged port, and a seed whose derived value is non-negative
// keeps the block it always had.
func TestUDPPortBlocks(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		if d := deriveSeed(seed, 2); d >= 0 {
			if got, was := udpPortBase(seed, 0), 21000+int(d%17)*2000; got != was {
				t.Errorf("seed %d: block at %d, was %d", seed, got, was)
			}
		}
		for attempt := 0; attempt < realnetPortAttempts; attempt++ {
			first := udpPortBase(seed, attempt)
			if last := first + realnetDefaultN - 1; first < 1024 || last > 65535 {
				t.Errorf("seed %d, attempt %d: ports %d–%d outside [1024, 65535]", seed, attempt, first, last)
			}
		}
	}
}
