package churn

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"avmon/internal/sim"
)

// ZoneOutage is one scheduled correlated fault: every node of Zone is
// forced down at Start (a whole availability zone failing, or becoming
// partitioned from the rest of the system — from the survivors' point
// of view the two are indistinguishable) and restored at End (the
// partition heals). Times are virtual durations since the simulation
// epoch.
type ZoneOutage struct {
	Zone  int
	Start time.Duration
	End   time.Duration
}

// ZoneOutageConfig parameterizes the correlated zone-outage model: a
// static population of N nodes spread across Zones zones, with whole
// zones killed and restored on a deterministic schedule.
//
// Node index idx belongs to zone idx mod Zones — exactly the mapping
// the zone-matrix latency model uses (simnet.NewZoneLatency), so an
// outage of zone z under a Zones×Zones latency matrix takes out
// precisely the nodes that share zone z's latency row. The initial
// population is born in index order (synthModel.orderedJoin), keeping
// the index → zone → lane mapping exact.
type ZoneOutageConfig struct {
	// N is the stable population size.
	N int
	// Zones is the zone count; must be ≥ 2 (a single zone would make
	// every outage a full-system blackout).
	Zones int
	// Schedule lists the outages. Outages of the same zone must not
	// overlap; distinct zones may fail concurrently.
	Schedule []ZoneOutage
}

// zoneOutageModel overlays a deterministic fail/heal schedule on a
// static ordered-join base population.
type zoneOutageModel struct {
	*synthModel
	zones    int
	schedule []ZoneOutage
}

// NewZoneOutage returns the correlated zone-outage model
// ("ZONE-OUTAGE"). The base population is static (no background
// churn), so every lifecycle event is one of the scheduled faults and
// recovery metrics isolate the outage.
func NewZoneOutage(cfg ZoneOutageConfig) (Model, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("churn: N must be positive, got %d", cfg.N)
	}
	if cfg.Zones < 2 {
		return nil, fmt.Errorf("churn: zone count must be ≥ 2, got %d", cfg.Zones)
	}
	if cfg.Zones > cfg.N {
		return nil, fmt.Errorf("churn: more zones (%d) than nodes (%d)", cfg.Zones, cfg.N)
	}
	if err := validateSchedule(cfg.Schedule, cfg.Zones); err != nil {
		return nil, err
	}
	return &zoneOutageModel{
		synthModel: &synthModel{name: "ZONE-OUTAGE", n: cfg.N, orderedJoin: true},
		zones:      cfg.Zones,
		schedule:   append([]ZoneOutage(nil), cfg.Schedule...),
	}, nil
}

// validateSchedule checks zone bounds, interval shape, and per-zone
// non-overlap.
func validateSchedule(schedule []ZoneOutage, zones int) error {
	perZone := make(map[int][]ZoneOutage)
	for i, o := range schedule {
		if o.Zone < 0 || o.Zone >= zones {
			return fmt.Errorf("churn: outage %d: zone %d outside [0,%d)", i, o.Zone, zones)
		}
		if o.Start < 0 || o.Start >= o.End {
			return fmt.Errorf("churn: outage %d: bad interval [%v, %v)", i, o.Start, o.End)
		}
		perZone[o.Zone] = append(perZone[o.Zone], o)
	}
	for zone, outages := range perZone {
		sort.Slice(outages, func(i, j int) bool { return outages[i].Start < outages[j].Start })
		for i := 1; i < len(outages); i++ {
			if outages[i].Start < outages[i-1].End {
				return fmt.Errorf("churn: zone %d outages [%v,%v) and [%v,%v) overlap",
					zone, outages[i-1].Start, outages[i-1].End, outages[i].Start, outages[i].End)
			}
		}
	}
	return nil
}

// Install implements Model: the static base population plus one
// fail/heal event pair per scheduled outage.
func (m *zoneOutageModel) Install(eng *sim.Engine, d Driver) {
	m.synthModel.Install(eng, d)
	for _, o := range m.schedule {
		o := o
		eng.At(sim.Epoch.Add(o.Start), func() { m.setZone(o.Zone, false) })
		eng.At(sim.Epoch.Add(o.End), func() { m.setZone(o.Zone, true) })
	}
}

// setZone forces every node of the zone down (up false) or back up.
// Nodes born during an outage (Enroll) are already up and untouched by
// its heal.
func (m *zoneOutageModel) setZone(zone int, up bool) {
	for idx := range m.states {
		if idx%m.zones == zone {
			m.force(idx, up)
		}
	}
}

// ParseOutageSchedule parses the textual zone-outage schedule format
// used by avmon-bench and the chaos experiment: a comma-separated list
// of `zone@start+duration` entries, where start and duration use Go
// duration syntax. Example:
//
//	"1@30m+10m,2@1h+5m"
//
// means zone 1 is down from minute 30 to minute 40 and zone 2 from
// 1h00 to 1h05. The empty string is an empty schedule. Zone bounds are
// checked by NewZoneOutage, which knows the zone count; this parser
// checks shape only (zone ≥ 0, start ≥ 0, duration > 0).
func ParseOutageSchedule(s string) ([]ZoneOutage, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []ZoneOutage
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		zonePart, timesPart, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("churn: outage entry %q: want zone@start+duration", entry)
		}
		startPart, durPart, ok := strings.Cut(timesPart, "+")
		if !ok {
			return nil, fmt.Errorf("churn: outage entry %q: want zone@start+duration", entry)
		}
		zone, err := strconv.Atoi(zonePart)
		if err != nil || zone < 0 {
			return nil, fmt.Errorf("churn: outage entry %q: bad zone %q", entry, zonePart)
		}
		start, err := time.ParseDuration(startPart)
		if err != nil || start < 0 {
			return nil, fmt.Errorf("churn: outage entry %q: bad start %q", entry, startPart)
		}
		dur, err := time.ParseDuration(durPart)
		if err != nil || dur <= 0 {
			return nil, fmt.Errorf("churn: outage entry %q: bad duration %q", entry, durPart)
		}
		if start+dur < start { // duration overflow
			return nil, fmt.Errorf("churn: outage entry %q: start+duration overflows", entry)
		}
		out = append(out, ZoneOutage{Zone: zone, Start: start, End: start + dur})
	}
	return out, nil
}
