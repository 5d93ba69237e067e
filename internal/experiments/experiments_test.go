package experiments

import (
	"strings"
	"testing"
	"time"
)

// tinyOptions keeps every experiment fast enough for CI while still
// exercising the full pipeline.
func tinyOptions() Options {
	return Options{Scale: 0.01, Seed: 7, Ns: []int{60, 120}}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	want := []string{
		"table1", "scale", "wan", "chaos", "realnet",
		"figure3", "figure4", "figure5", "figure6", "figure7",
		"figure8", "figure9", "figure10", "figure11", "figure12",
		"figure13", "figure14", "figure15", "figure16", "figure17",
		"figure18", "figure19", "figure20",
		"ablation-reshuffle", "ablation-rejoin-weight",
		"ablation-forgetful", "ablation-consistency", "ablation-hash",
	}
	if len(reg) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(reg), len(want))
	}
	for _, id := range want {
		if reg[id] == nil {
			t.Errorf("missing experiment %q", id)
		}
	}
	idsList := IDs()
	if len(idsList) != len(reg) {
		t.Errorf("IDs() returned %d, want %d", len(idsList), len(reg))
	}
	for i := 1; i < len(idsList); i++ {
		if idsList[i] <= idsList[i-1] {
			t.Error("IDs() not sorted")
		}
	}
}

func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	o := tinyOptions()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Registry()[id](o)
			if err != nil {
				t.Fatalf("%s failed: %v", id, err)
			}
			if res.ID != id {
				t.Errorf("result ID = %q, want %q", res.ID, id)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			text := res.String()
			if !strings.Contains(text, res.Title) {
				t.Error("rendered output missing title")
			}
			for _, tb := range res.Tables {
				if len(tb.Header) == 0 || len(tb.Rows) == 0 {
					t.Errorf("table %q empty", tb.Title)
				}
			}
		})
	}
}

func TestScaledDurations(t *testing.T) {
	o := Options{Scale: 0.5}.withDefaults()
	if got := o.scaled(2*time.Hour, time.Minute); got != time.Hour {
		t.Errorf("scaled = %v, want 1h", got)
	}
	if got := o.scaled(time.Minute, 10*time.Minute); got != 10*time.Minute {
		t.Errorf("floor not applied: %v", got)
	}
	if def := (Options{}).withDefaults(); def.Scale != 1 || def.Seed != 1 {
		t.Errorf("defaults = %+v", def)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"col", "value"}}
	tb.AddRow("a", "1")
	tb.AddRow("longer-cell", "2")
	s := tb.String()
	if !strings.Contains(s, "## demo") || !strings.Contains(s, "longer-cell") {
		t.Errorf("rendered:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Errorf("rendered %d lines, want 4", len(lines))
	}
}

func TestMeanDiscoveryDropsOutlier(t *testing.T) {
	times := []time.Duration{time.Minute, time.Minute, 100 * time.Minute}
	if got := meanDiscoveryMinutes(times); got != 1 {
		t.Errorf("mean = %v, want 1 (outlier dropped)", got)
	}
	if got := meanDiscoveryMinutes(nil); got != 0 {
		t.Errorf("empty mean = %v", got)
	}
	// With ≤ 2 samples nothing is dropped.
	two := []time.Duration{time.Minute, 3 * time.Minute}
	if got := meanDiscoveryMinutes(two); got != 2 {
		t.Errorf("two-sample mean = %v, want 2", got)
	}
}

func TestModelKindStrings(t *testing.T) {
	kinds := []modelKind{modelSTAT, modelSYNTH, modelSYNTHBD, modelSYNTHBD2, modelPL, modelOV}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "?" || seen[s] {
			t.Errorf("kind %d stringifies to %q", k, s)
		}
		seen[s] = true
	}
	if modelKind(99).String() != "?" {
		t.Error("unknown kind not ?")
	}
}
