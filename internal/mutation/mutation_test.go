package mutation

import (
	"bytes"
	"strings"
	"testing"
)

func TestCatalogueWellFormed(t *testing.T) {
	muts := Catalogue()
	if len(muts) < 12 {
		t.Fatalf("catalogue size = %d, want >= 12", len(muts))
	}
	seen := make(map[string]bool)
	paperCount := 0
	for _, m := range muts {
		if m.ID == "" || m.Name == "" || m.Description == "" || m.Apply == nil {
			t.Errorf("mutant %+v incomplete", m)
		}
		if seen[m.ID] {
			t.Errorf("duplicate mutant ID %s", m.ID)
		}
		seen[m.ID] = true
		if m.Kind != KindAuthorization && m.Kind != KindFunctional {
			t.Errorf("mutant %s has invalid kind", m.ID)
		}
		if m.Paper {
			paperCount++
		}
	}
	// The paper's validation used exactly three mutants.
	if paperCount != 3 {
		t.Errorf("paper mutants = %d, want 3", paperCount)
	}
	if got := len(PaperMutants()); got != 3 {
		t.Errorf("PaperMutants = %d", got)
	}
}

func TestBaselineHasNoFalsePositives(t *testing.T) {
	lab, err := NewLab()
	if err != nil {
		t.Fatal(err)
	}
	requests := lab.RunMatrix()
	if requests < 12 {
		t.Errorf("matrix issued only %d requests", requests)
	}
	if n, first := lab.violations(); n != 0 {
		t.Errorf("%d false positives, the first %s", n, first)
	}
	// The matrix must exercise every security requirement.
	cov := lab.Sys.Monitor.Coverage()
	for _, s := range []string{"1.1", "1.2", "1.3", "1.4"} {
		if cov[s] == 0 {
			t.Errorf("SecReq %s not covered by the matrix", s)
		}
	}
}

// TestPaperMutantsAllKilled reproduces Section VI.D: the monitor kills all
// three mutants injected into the cloud implementation.
func TestPaperMutantsAllKilled(t *testing.T) {
	report, err := RunCampaign(PaperMutants())
	if err != nil {
		t.Fatal(err)
	}
	if report.BaselineViolations != 0 {
		t.Errorf("baseline violations = %d, want 0", report.BaselineViolations)
	}
	if report.Killed() != 3 {
		for _, run := range report.Runs {
			t.Logf("%s (%s): killed=%v violations=%d first=%s",
				run.MutantID, run.MutantName, run.Killed, run.Violations, run.FirstViolation)
		}
		t.Fatalf("killed %d/3 paper mutants", report.Killed())
	}
}

// TestFullCatalogueKilled runs the extended campaign: every mutant in the
// catalogue must be detected by the standard request matrix.
func TestFullCatalogueKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	report, err := RunCampaign(Catalogue())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range report.Runs {
		if !run.Killed {
			t.Errorf("mutant %s (%s) survived", run.MutantID, run.MutantName)
		}
	}
	if report.KillRatio() != 1 {
		t.Errorf("kill ratio = %.2f, want 1.00", report.KillRatio())
	}
}

func TestReportFormat(t *testing.T) {
	report, err := RunCampaign(PaperMutants()[:1])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report.Format(&buf)
	out := buf.String()
	for _, want := range []string{"A1", "delete-allows-member", "killed 1/1", "baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestKillRatioEmpty(t *testing.T) {
	r := &CampaignReport{}
	if r.KillRatio() != 1 {
		t.Error("empty campaign ratio should be 1")
	}
}

func TestKindString(t *testing.T) {
	if KindAuthorization.String() != "authorization" || KindFunctional.String() != "functional" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}
