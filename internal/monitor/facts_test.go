package monitor

import (
	"net/http"
	"testing"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
)

// TestFactsPruneOnPaperModel pins what fact pruning saves on the paper's
// Cinder model, measured in per-clause path demands (DemandedPaths): once
// one disjunct of a trigger is observed true, every sibling is decided by
// a single witness element instead of a full evaluation.
func TestFactsPruneOnPaperModel(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, method, path   string
		pre, post            ocl.MapEnv
		wantSkipped          int
		wantFacts, wantPlain int // DemandedPaths with facts on / off
	}{
		// DELETE of the project's last volume: the size()=1 disjunct is
		// true, arming the witness exclusion of its size()>1 sibling.
		{"delete-last", http.MethodDelete, "/projects/p1/volumes/v1",
			env(1, 10, "available", "admin"), env(0, 10, "available", "admin"),
			1, 12, 14},
		// POST into an empty project: the NoVolume disjunct is true and
		// all three siblings are decided by one witness element each.
		{"post-empty", http.MethodPost, "/projects/p1/volumes",
			env(0, 10, "available", "admin"), env(1, 10, "available", "admin"),
			3, 11, 16},
	}
	for _, tc := range cases {
		vf, _ := runEngine(t, set, arm{}, Enforce, tc.method, tc.path, tc.pre, tc.post, 204)
		vl, _ := runEngine(t, set, arm{noFacts: true}, Enforce, tc.method, tc.path, tc.pre, tc.post, 204)
		if vf.Outcome != OK || vl.Outcome != OK {
			t.Fatalf("%s: outcomes facts=%s plain=%s, want ok/ok", tc.name, vf.Outcome, vl.Outcome)
		}
		if vl.FactsSkipped != 0 {
			t.Errorf("%s: NoFacts verdict reports %d skips", tc.name, vl.FactsSkipped)
		}
		if vf.FactsSkipped != tc.wantSkipped {
			t.Errorf("%s: FactsSkipped = %d, want %d", tc.name, vf.FactsSkipped, tc.wantSkipped)
		}
		if vf.DemandedPaths >= vl.DemandedPaths {
			t.Errorf("%s: facts did not reduce demands: %d with, %d without",
				tc.name, vf.DemandedPaths, vl.DemandedPaths)
		}
		if vf.DemandedPaths != tc.wantFacts || vl.DemandedPaths != tc.wantPlain {
			t.Errorf("%s: DemandedPaths = %d/%d (facts/plain), want %d/%d",
				tc.name, vf.DemandedPaths, vl.DemandedPaths, tc.wantFacts, tc.wantPlain)
		}
	}
}

// TestFactsMetricsAndReset: the pruning counters surface in /metrics under
// cloudmon_facts_* and ResetLog clears them.
func TestFactsMetricsAndReset(t *testing.T) {
	pre := env(1, 10, "available", "admin")
	post := env(0, 10, "available", "admin")
	m := newMonitor(t, Enforce, &fakeProvider{pre: pre, post: post}, &fakeForwarder{status: 204})
	doDelete(t, m)
	if got := m.factsPruned.Snapshot()[factsPrunedPreSibling]; got != 1 {
		t.Fatalf("pre-sibling prunes = %d, want 1", got)
	}
	m.ResetLog()
	if got := m.factsPruned.Snapshot()[factsPrunedPreSibling]; got != 0 {
		t.Errorf("prune counter survived ResetLog: %d", got)
	}
}
