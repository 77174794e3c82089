package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cloudmon/internal/fleet"
)

// TestSmokeEachWorkload runs every workload briefly with all output
// checks on. The windows are too short for the p99 figures, which the
// percentile rule then refuses; that is the only shortfall allowed here.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the in-process deployment for several seconds")
	}
	out := t.TempDir()
	for _, w := range workloads {
		r, err := runEndToEnd(w, 3, time.Second, out)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, c := range r.checks {
			t.Errorf("%s: %s", w.name, c)
		}
		if r.attempted == 0 || r.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, r.attempted, r.failed)
		}
		for _, m := range r.metrics {
			if m.name == "false_violation_share" && w.strictVerdicts && m.value != 0 {
				t.Errorf("%s: false_violation_share %v, want 0", w.name, m.value)
			}
		}
	}
	if entries, _ := os.ReadDir(out); len(entries) != 0 {
		t.Errorf("run left %d entries behind in its output directory", len(entries))
	}
}

// TestSmokeTraced runs the traced breakdown briefly: the self times must
// be non-negative and reconcile with the mean client latency, and the
// span file must be written.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the in-process deployment for several seconds")
	}
	out := t.TempDir()
	for _, name := range []string{"mixed-inproc-fleet2", "write-shared-async-rtt1ms"} {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runLayers(w, 5, 700*time.Millisecond, out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range r.checks {
			t.Errorf("%s: %s", name, c)
		}
		got := map[string]bool{}
		for _, m := range r.metrics {
			got[m.name] = true
		}
		for _, d := range perLayer {
			if !got[d.name] && d.name != "client.latency_p99_ms" && d.name != "monitor.detection_lag_p99_ms" {
				t.Errorf("%s: per-layer metric %s missing", name, d.name)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "spans-"+name+".csv")); err != nil {
			t.Errorf("%s: span file: %v", name, err)
		}
	}
}

// TestSeedBalancesFleetPlacement checks that every client of the fleet
// workload has the same number of projects on each member, whatever ids
// the cloud assigned.
func TestSeedBalancesFleetPlacement(t *testing.T) {
	w, err := lookupWorkload("mixed-inproc-fleet2")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := seedCloud(w)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := fleet.NewRing(instanceIDs(w))
	if err != nil {
		t.Fatal(err)
	}
	for c := range clients {
		placed := map[string]int{}
		for _, p := range sc.projects[c] {
			placed[ring.Owner(p.id)]++
		}
		for _, id := range instanceIDs(w) {
			if placed[id] != w.projectsPerClient/w.instances {
				t.Errorf("client %d has %d projects on %s, want %d", c, placed[id], id, w.projectsPerClient/w.instances)
			}
		}
		for p, pool := range sc.pools[c] {
			if len(pool) < w.lo || len(pool) > w.hi {
				t.Errorf("client %d project %d starts with %d volumes, outside %d..%d", c, p, len(pool), w.lo, w.hi)
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric and workload tables in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with %q on stdout; want 2 and no result", args, code, stdout.String())
		}
	}
}
