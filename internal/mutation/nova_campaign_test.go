package mutation

import "testing"

func TestNovaBaselineClean(t *testing.T) {
	lab, err := NewNovaLab()
	if err != nil {
		t.Fatal(err)
	}
	requests := lab.RunMatrix()
	if requests < 8 {
		t.Errorf("matrix issued only %d requests", requests)
	}
	if n, first := lab.violations(); n != 0 {
		t.Errorf("%d false positives, the first %s", n, first)
	}
	cov := lab.Sys.Monitor.Coverage()
	for _, s := range []string{"2.1", "2.2", "2.3"} {
		if cov[s] == 0 {
			t.Errorf("SecReq %s not covered", s)
		}
	}
}

// TestNovaCampaignAllKilled: the same validation design applied to the
// compute service — every nova authorization mutant is killed with zero
// false positives.
func TestNovaCampaignAllKilled(t *testing.T) {
	report, err := RunNovaCampaign(NovaCatalogue())
	if err != nil {
		t.Fatal(err)
	}
	if report.BaselineViolations != 0 {
		t.Errorf("baseline violations = %d", report.BaselineViolations)
	}
	for _, run := range report.Runs {
		if !run.Killed {
			t.Errorf("nova mutant %s (%s) survived", run.MutantID, run.MutantName)
		}
	}
	if len(report.Runs) != 4 {
		t.Errorf("runs = %d, want 4", len(report.Runs))
	}
}

func TestNovaCatalogueWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range NovaCatalogue() {
		if m.ID == "" || m.Name == "" || m.Apply == nil {
			t.Errorf("incomplete mutant %+v", m)
		}
		if seen[m.ID] {
			t.Errorf("duplicate ID %s", m.ID)
		}
		seen[m.ID] = true
	}
}
