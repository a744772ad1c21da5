package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON is the repository root's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// main.go are what the program prints. They must say the same thing, and
// stay inside the contract's limits.
func TestBenchmarkJSONMirrorsTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s / %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end metric %d: %+v vs %+v", i, g, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := b.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || (g.Better != "lower" && g.Better != "higher") {
			t.Errorf("per-layer metric %d: %+v vs %+v", i, g, d)
		}
	}
}

func TestTablesStayInsideTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, d metricDef) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("%s metric %q unit %q breaks the naming rules", kind, d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end", d)
		if d.bound <= 0 || d.bound > 0.25 || (d.better != "lower" && d.better != "higher") {
			t.Errorf("end-to-end metric %+v: bound must be in (0, 0.25] and better lower|higher", d)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	for _, d := range perLayer {
		check("per-layer", d)
	}
	// Every workload measures setup_s and only declared metrics, and every
	// end-to-end metric is in at least one workload's row.
	gated, inSomeRow := map[string]bool{}, map[string]bool{}
	for _, d := range endToEnd {
		gated[d.name] = true
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || w.run == nil {
			t.Errorf("workload %q breaks the rules (why is %d chars)", w.name, len(w.why))
		}
		if !emitsMetric(&w, "setup_s") {
			t.Errorf("workload %q does not measure setup_s", w.name)
		}
		for _, m := range w.emits {
			if !gated[m] {
				t.Errorf("workload %q emits %q, which is not an end-to-end metric", w.name, m)
			}
			inSomeRow[m] = true
		}
		seen[w.name] = true
	}
	for _, d := range endToEnd {
		if !inSomeRow[d.name] {
			t.Errorf("end-to-end metric %q is in no workload's row", d.name)
		}
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("setup_s present %v; %d end-to-end, %d per-layer, %d workloads", hasSetup, len(endToEnd), len(perLayer), len(workloads))
	}
	if defaultSeconds < 1 || defaultSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", defaultSeconds)
	}
	// Every ledger bucket has a metric, and every probe-less metric name a
	// workload fills is declared: a typo would silently print 0.
	for _, m := range ledgerMetric {
		if !seen[m] {
			t.Errorf("ledger metric %q is not in the per-layer table", m)
		}
	}
	for _, p := range priceList {
		for _, probe := range p.probes {
			if !seen[probe] {
				t.Errorf("cost model prices %q with undeclared probe %q", p.call, probe)
			}
		}
	}
}
