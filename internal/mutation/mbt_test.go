package mutation

import (
	"testing"

	"cloudmon/internal/mbt"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

var mbtRoles = []string{paper.RoleAdmin, paper.RoleMember, paper.RoleUser}

// TestMBTSuiteOnCleanCloud: the suite generated from the behavioral model
// runs green against a correct deployment — every positive case permitted,
// every negative and anonymous case denied, no monitor violations.
func TestMBTSuiteOnCleanCloud(t *testing.T) {
	suite, err := mbt.Generate(paper.CinderBehavioralModel(), mbtRoles)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewModelExecutor(nil)
	res, err := mbt.Run(suite, ex)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures() {
		t.Errorf("case %s failed: permitted=%v expect=%v setup=%v",
			f.Case.ID, f.Permitted, f.Case.ExpectPermitted, f.SetupErr)
	}
	if n, first := ex.Lab().violations(); n != 0 {
		t.Errorf("clean deployment produced %d violations, the first %s", n, first)
	}
}

// TestMBTSuiteKillsPaperMutants: the auto-generated suite is as strong an
// oracle as the hand-written matrix — every paper mutant is exposed either
// by a failing case or by a monitor violation.
func TestMBTSuiteKillsPaperMutants(t *testing.T) {
	if testing.Short() {
		t.Skip("mutant sweep in -short mode")
	}
	suite, err := mbt.Generate(paper.CinderBehavioralModel(), mbtRoles)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range PaperMutants() {
		m := m
		t.Run(m.ID, func(t *testing.T) {
			ex := NewModelExecutor(&m)
			res, err := mbt.Run(suite, ex)
			if err != nil {
				t.Fatal(err)
			}
			// A mutant is killed if any case deviates from its expectation
			// OR the monitor flagged a violation during the run (in Observe
			// mode the monitor answers 409 for violations, so the case may
			// still "pass" — the oracle signal is the violation itself).
			failures := len(res.Failures())
			if failures == 0 && ex.Violations() == 0 {
				t.Errorf("mutant %s (%s) survived the generated suite", m.ID, m.Name)
			}
		})
	}
}

// TestModelExecutorRejectsForeignResources guards the executor's scope.
func TestModelExecutorScope(t *testing.T) {
	ex := NewModelExecutor(nil)
	if _, err := ex.Fire(mbt.Step{}); err == nil {
		t.Error("firing before reset should error")
	}
	if err := ex.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Fire(mbt.Step{Trigger: serverTrigger()}); err == nil {
		t.Error("non-volume trigger accepted")
	}
}

// serverTrigger is a trigger outside the executor's volume scope.
func serverTrigger() uml.Trigger {
	return uml.Trigger{Method: uml.GET, Resource: "server"}
}
