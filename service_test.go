package avmon

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// newLocalServices spins up n AVMON services on loopback UDP with
// fast protocol periods, bootstrapped in a chain.
func newLocalServices(t *testing.T, n int, opts NodeOptions) []*Service {
	t.Helper()
	base := 30000 + rand.Intn(20000)
	services := make([]*Service, 0, n)
	for i := 0; i < n; i++ {
		cfg := ServiceConfig{
			Addr:    fmt.Sprintf("127.0.0.1:%d", base+i),
			N:       n,
			Options: opts,
			Seed:    int64(i + 1),
		}
		if i > 0 {
			cfg.Bootstrap = fmt.Sprintf("127.0.0.1:%d", base)
		}
		s, err := NewService(cfg)
		if err != nil {
			t.Fatalf("NewService %d: %v", i, err)
		}
		services = append(services, s)
		t.Cleanup(s.Stop)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return services
}

func TestServiceLoopbackDiscovery(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	opts := NodeOptions{
		K:             3,
		CVS:           4,
		Period:        50 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
		Hash:          HashMD5,
	}
	services := newLocalServices(t, 6, opts)

	deadline := time.After(15 * time.Second)
	for {
		discovered := 0
		for _, s := range services {
			if len(s.Monitors()) > 0 {
				discovered++
			}
		}
		if discovered >= 4 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("after 15s only %d of 6 services discovered monitors", discovered)
		case <-time.After(100 * time.Millisecond):
		}
	}
	// Every reported monitor must verify under the shared scheme.
	scheme, err := NewSelector(HashMD5, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range services {
		report := s.ReportMonitors(0)
		if len(report) == 0 {
			continue
		}
		if _, err := VerifyReport(scheme, s.ID(), report, 1); err != nil {
			t.Errorf("service %v report failed verification: %v", s.ID(), err)
		}
	}
}

func TestServiceMonitoringOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	opts := NodeOptions{
		K:             4,
		CVS:           4,
		Period:        50 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
	}
	services := newLocalServices(t, 5, opts)
	// Wait for at least one monitoring relationship to produce acks.
	deadline := time.After(15 * time.Second)
	for {
		ok := false
		for _, s := range services {
			for _, tgt := range s.Targets() {
				if est, known := s.EstimateOf(tgt); known && est > 0.5 {
					ok = true
				}
			}
		}
		if ok {
			return
		}
		select {
		case <-deadline:
			t.Fatal("no monitor produced a positive availability estimate over UDP")
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func TestServiceDoubleStart(t *testing.T) {
	s, err := NewService(ServiceConfig{
		Addr: fmt.Sprintf("127.0.0.1:%d", 28000+rand.Intn(1000)),
		N:    4,
		Options: NodeOptions{
			K: 2, CVS: 2, Period: time.Second, MonitorPeriod: time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Error("second Start succeeded")
	}
	if _, _, cv, _ := s.Stats(); cv < 0 {
		t.Error("stats unavailable")
	}
}

func TestServiceQueryAvailabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	opts := NodeOptions{
		K:             4,
		CVS:           4,
		Period:        50 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
	}
	services := newLocalServices(t, 6, opts)
	// Wait until some service has monitors with estimates.
	var subject *Service
	deadline := time.After(20 * time.Second)
	for subject == nil {
		for _, s := range services {
			if len(s.Monitors()) > 0 {
				subject = s
				break
			}
		}
		if subject == nil {
			select {
			case <-deadline:
				t.Fatal("no service discovered monitors")
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	// Give monitors time to accumulate ping history.
	time.Sleep(500 * time.Millisecond)
	querier := services[0]
	if querier == subject {
		querier = services[1]
	}
	report, err := querier.QueryAvailability(subject.ID(), 2, 5*time.Second)
	if err != nil {
		t.Fatalf("QueryAvailability: %v", err)
	}
	if report.Subject != subject.ID() || len(report.Monitors) == 0 {
		t.Fatalf("report = %+v", report)
	}
	if report.Mean < 0.5 || report.Mean > 1 {
		t.Errorf("mean availability = %v, want near 1 for an up node", report.Mean)
	}
	if len(report.Estimates) != len(report.Monitors) {
		t.Error("estimates not aligned with monitors")
	}
}

func TestServiceQueryTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	opts := NodeOptions{
		K: 2, CVS: 2,
		Period:        time.Hour, // protocol effectively frozen
		MonitorPeriod: time.Hour,
	}
	services := newLocalServices(t, 2, opts)
	// Query a node that does not exist: must time out, not hang.
	ghost := MustParseID(t, "127.0.0.1:1")
	_, err := services[0].QueryAvailability(ghost, 1, 300*time.Millisecond)
	if err == nil {
		t.Fatal("query to ghost node succeeded")
	}
}

// MustParseID is a test helper.
func MustParseID(t *testing.T, addr string) ID {
	t.Helper()
	id, err := ParseID(addr)
	if err != nil {
		t.Fatal(err)
	}
	return id
}
