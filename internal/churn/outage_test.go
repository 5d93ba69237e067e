package churn

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"avmon/internal/sim"
)

func TestZoneOutageValidation(t *testing.T) {
	ok := []ZoneOutage{{Zone: 1, Start: 10 * time.Minute, End: 20 * time.Minute}}
	for _, tc := range []struct {
		name string
		cfg  ZoneOutageConfig
	}{
		{"zero N", ZoneOutageConfig{N: 0, Zones: 2, Schedule: ok}},
		{"one zone", ZoneOutageConfig{N: 10, Zones: 1, Schedule: ok}},
		{"more zones than nodes", ZoneOutageConfig{N: 3, Zones: 4}},
		{"zone out of range", ZoneOutageConfig{N: 10, Zones: 2, Schedule: []ZoneOutage{
			{Zone: 2, Start: 0, End: time.Minute},
		}}},
		{"negative zone", ZoneOutageConfig{N: 10, Zones: 2, Schedule: []ZoneOutage{
			{Zone: -1, Start: 0, End: time.Minute},
		}}},
		{"empty interval", ZoneOutageConfig{N: 10, Zones: 2, Schedule: []ZoneOutage{
			{Zone: 0, Start: time.Minute, End: time.Minute},
		}}},
		{"negative start", ZoneOutageConfig{N: 10, Zones: 2, Schedule: []ZoneOutage{
			{Zone: 0, Start: -time.Minute, End: time.Minute},
		}}},
		{"same-zone overlap", ZoneOutageConfig{N: 10, Zones: 2, Schedule: []ZoneOutage{
			{Zone: 0, Start: 0, End: 10 * time.Minute},
			{Zone: 0, Start: 5 * time.Minute, End: 15 * time.Minute},
		}}},
	} {
		if _, err := NewZoneOutage(tc.cfg); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
	// Distinct zones may fail concurrently; same-zone back-to-back is
	// also fine.
	if _, err := NewZoneOutage(ZoneOutageConfig{N: 10, Zones: 3, Schedule: []ZoneOutage{
		{Zone: 0, Start: 0, End: 10 * time.Minute},
		{Zone: 1, Start: 5 * time.Minute, End: 15 * time.Minute},
		{Zone: 0, Start: 10 * time.Minute, End: 12 * time.Minute},
	}}); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestZoneOutageFailsAndHeals(t *testing.T) {
	m, err := NewZoneOutage(ZoneOutageConfig{
		N: 12, Zones: 3,
		Schedule: []ZoneOutage{{Zone: 1, Start: 30 * time.Minute, End: time.Hour}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "ZONE-OUTAGE" || m.StableN() != 12 {
		t.Fatalf("Name/StableN = %q/%d", m.Name(), m.StableN())
	}
	eng := sim.New(3)
	rec := newRecorder()
	m.Install(eng, rec)

	eng.RunFor(10 * time.Minute)
	if len(rec.alive) != 12 {
		t.Fatalf("pre-outage alive = %d, want 12", len(rec.alive))
	}
	eng.RunFor(35 * time.Minute) // t = 45m, inside the outage
	if len(rec.alive) != 8 {
		t.Fatalf("mid-outage alive = %d, want 8 (zone 1 of 3 down)", len(rec.alive))
	}
	for idx := range rec.alive {
		if idx%3 == 1 {
			t.Fatalf("zone-1 node %d alive during its outage", idx)
		}
	}
	eng.RunFor(45 * time.Minute) // t = 90m, healed
	if len(rec.alive) != 12 {
		t.Fatalf("post-heal alive = %d, want 12", len(rec.alive))
	}
	if rec.leaves != 4 || rec.rejoins != 4 {
		t.Fatalf("leaves/rejoins = %d/%d, want 4/4", rec.leaves, rec.rejoins)
	}
	if rec.deaths != 0 {
		t.Fatalf("deaths = %d, want 0 (outages are not deaths)", rec.deaths)
	}
}

func TestZoneOutageEnrolleesUntouched(t *testing.T) {
	m, err := NewZoneOutage(ZoneOutageConfig{
		N: 9, Zones: 3,
		Schedule: []ZoneOutage{{Zone: 0, Start: 20 * time.Minute, End: 40 * time.Minute}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(4)
	rec := newRecorder()
	m.Install(eng, rec)
	eng.RunFor(25 * time.Minute) // inside the outage
	idx := m.Enroll()
	if !rec.alive[idx] {
		t.Fatal("enrolled node not alive")
	}
	eng.RunFor(25 * time.Minute) // past the heal
	if !rec.alive[idx] {
		t.Error("heal toggled a node enrolled during the outage")
	}
	if len(rec.alive) != 10 {
		t.Errorf("alive = %d, want 10", len(rec.alive))
	}
}

func TestParseOutageSchedule(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []ZoneOutage
	}{
		{"", nil},
		{"   ", nil},
		{"1@30m+10m", []ZoneOutage{{Zone: 1, Start: 30 * time.Minute, End: 40 * time.Minute}}},
		{"1@30m+10m,2@1h+5m", []ZoneOutage{
			{Zone: 1, Start: 30 * time.Minute, End: 40 * time.Minute},
			{Zone: 2, Start: time.Hour, End: time.Hour + 5*time.Minute},
		}},
		{" 0@0s+1.5h ", []ZoneOutage{{Zone: 0, Start: 0, End: 90 * time.Minute}}},
	} {
		got, err := ParseOutageSchedule(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: got %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{
		"1",                   // no @
		"1@30m",               // no +
		"x@30m+10m",           // bad zone
		"-1@30m+10m",          // negative zone
		"1@-30m+10m",          // negative start
		"1@30m+0s",            // zero duration
		"1@30m+-10m",          // negative duration
		"1@30m+10m,",          // trailing empty entry
		"1@30m+10m,2",         // malformed second entry
		"1@2562047h+2562047h", // start+duration overflows
	} {
		if _, err := ParseOutageSchedule(bad); err == nil {
			t.Errorf("%q: expected an error", bad)
		}
	}
}

// formatOutages renders a schedule in the textual format
// ParseOutageSchedule reads, with time.Duration's canonical spelling.
func formatOutages(schedule []ZoneOutage) string {
	parts := make([]string, 0, len(schedule))
	for _, o := range schedule {
		parts = append(parts, fmt.Sprintf("%d@%s+%s", o.Zone, o.Start, o.End-o.Start))
	}
	return strings.Join(parts, ",")
}

// FuzzParseOutageSchedule asserts the textual schedule parser never
// panics and that every accepted schedule is a fixed point of the
// render → Parse round trip (canonical duration rendering may differ
// from the input spelling — "90m" prints as "1h30m0s" — so the
// comparison is on parsed values, not strings).
func FuzzParseOutageSchedule(f *testing.F) {
	f.Add("")
	f.Add("1@30m+10m")
	f.Add("1@30m+10m,2@1h+5m")
	f.Add("0@0s+1.5h")
	f.Add("1@2562047h+2562047h")
	f.Add("99@1ns+1ns")
	f.Add("1@30m")
	f.Add(",,,")
	f.Add("-1@-1m+-1m")
	f.Fuzz(func(t *testing.T, s string) {
		schedule, err := ParseOutageSchedule(s)
		if err != nil {
			return
		}
		text := formatOutages(schedule)
		again, err := ParseOutageSchedule(text)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q rejected: %v", text, s, err)
		}
		if !reflect.DeepEqual(again, schedule) {
			t.Fatalf("round trip changed the schedule: %v → %q → %v", schedule, text, again)
		}
		// Parsed schedules respect the parser's documented shape
		// guarantees.
		for _, o := range schedule {
			if o.Zone < 0 || o.Start < 0 || o.End <= o.Start {
				t.Fatalf("accepted malformed outage %+v from %q", o, s)
			}
		}
		if strings.TrimSpace(s) == "" && schedule != nil {
			t.Fatalf("blank input %q produced a schedule", s)
		}
	})
}
