package analysis

import (
	"strings"
	"testing"

	"cloudmon/internal/paper"
	"cloudmon/internal/slice"
	"cloudmon/internal/uml"
)

// minimalModel builds the smallest analyzer-clean model the tests mutate:
// a things/thing collection pair and a two-state machine with tagged
// POST/DELETE transitions.
func minimalModel() *uml.Model {
	rm := &uml.ResourceModel{
		Name: "m",
		Resources: []*uml.ResourceDef{
			{Name: "things", Kind: uml.KindCollection},
			{Name: "thing", Kind: uml.KindNormal, Attributes: []uml.Attribute{
				{Name: "id", Type: uml.TypeString},
				{Name: "count", Type: uml.TypeInteger},
			}},
		},
		Associations: []uml.Association{
			{From: "things", To: "thing", Role: "thing", Mult: uml.Multiplicity{Min: 0, Max: uml.Many}},
		},
	}
	bm := &uml.BehavioralModel{
		Name: "b",
		States: []*uml.State{
			{Name: "empty", Initial: true, Invariant: "things->size() = 0"},
			{Name: "busy", Invariant: "things->size() >= 1"},
		},
		Transitions: []*uml.Transition{
			{
				From: "empty", To: "busy",
				Trigger: uml.Trigger{Method: uml.POST, Resource: "thing"},
				Effect:  "things->size() = pre(things->size()) + 1",
				SecReqs: []string{"1.1"},
			},
			{
				From: "busy", To: "empty",
				Trigger: uml.Trigger{Method: uml.DELETE, Resource: "thing"},
				Guard:   "things->size() = 1",
				Effect:  "things->size() = pre(things->size()) - 1",
				SecReqs: []string{"1.2"},
			},
		},
	}
	return &uml.Model{Resource: rm, Behavioral: bm}
}

// wantDiag asserts the report contains a diagnostic with the code, at the
// expected severity, whose location+message mention every needle.
func wantDiag(t *testing.T, r *Report, code string, sev Severity, needles ...string) Diagnostic {
	t.Helper()
	ds := r.ByCode(code)
	if len(ds) == 0 {
		t.Fatalf("no %s diagnostic; report:\n%s", code, r.Render())
	}
	for _, d := range ds {
		if d.Severity != sev {
			continue
		}
		text := d.Loc.String() + ": " + d.Message
		ok := true
		for _, n := range needles {
			if !strings.Contains(text, n) {
				ok = false
				break
			}
		}
		if ok {
			return d
		}
	}
	t.Fatalf("no %s diagnostic at severity %s mentioning %q; report:\n%s",
		code, sev, needles, r.Render())
	return Diagnostic{}
}

func analyze(m *uml.Model) *Report { return Analyze(m, Config{}) }

func TestMinimalModelHasNoErrors(t *testing.T) {
	r := analyze(minimalModel())
	if r.HasErrors() {
		t.Fatalf("minimal model has errors:\n%s", r.Render())
	}
}

func TestStructurallyInvalidModelReportsMV000(t *testing.T) {
	m := minimalModel()
	m.Behavioral.Transitions[0].From = "ghost"
	m.Resource.Resources[1].Attributes = nil // normal resource without attributes
	r := analyze(m)
	wantDiag(t, r, "MV000", Error, "unknown source state")
	wantDiag(t, r, "MV000", Error, "at least one attribute")
	if !r.HasErrors() {
		t.Fatal("invalid model must report errors")
	}
}

func TestParseErrorMV001(t *testing.T) {
	m := minimalModel()
	m.Behavioral.Transitions[1].Guard = "things->size( ="
	r := analyze(m)
	wantDiag(t, r, "MV001", Error, `transition DELETE(thing) busy->empty`, "guard")
}

func TestUnknownPathsAllReportedMV002(t *testing.T) {
	m := minimalModel()
	m.Behavioral.States[0].Invariant = "thing.bogus = 1 and ghost.attr = 2 and thing.bogus = 3"
	r := analyze(m)
	wantDiag(t, r, "MV002", Error, `state "empty"`, `"ghost.attr"`)
	wantDiag(t, r, "MV002", Error, `state "empty"`, `"thing.bogus"`)
	// Deduplicated: thing.bogus appears twice in the formula, once in
	// the report.
	if got := len(r.ByCode("MV002")); got != 2 {
		t.Fatalf("MV002 count = %d, want 2 (deduplicated):\n%s", got, r.Render())
	}
}

func TestTypeMismatchMV003(t *testing.T) {
	m := minimalModel()
	// thing.count is Integer; `and` over it raises an EvalError at
	// runtime — modelvet catches it statically.
	m.Behavioral.Transitions[1].Guard = "thing.count and things->size() = 1"
	r := analyze(m)
	wantDiag(t, r, "MV003", Error, "guard", "and applied to Integer")
}

func TestIncomparableScalarsMV004(t *testing.T) {
	m := minimalModel()
	m.Behavioral.Transitions[1].Guard = "thing.count = 'busy'"
	r := analyze(m)
	wantDiag(t, r, "MV004", Warning, "always false")
	if r.HasErrors() {
		t.Fatalf("MV004 is advisory, got errors:\n%s", r.Render())
	}
}

func TestUnknownOpAndArityMV005(t *testing.T) {
	m := minimalModel()
	m.Behavioral.States[0].Invariant = "things->frobnicate() = 0"
	m.Behavioral.States[1].Invariant = "things->size(1) >= 1"
	r := analyze(m)
	wantDiag(t, r, "MV005", Error, `state "empty"`, `unknown collection operation "frobnicate"`)
	wantDiag(t, r, "MV005", Error, `state "busy"`, "size expects 0 argument(s), got 1")
}

func TestIteratorScopeMV006(t *testing.T) {
	m := minimalModel()
	m.Behavioral.Transitions[1].Guard = "things->forAll(x | x.id = 'a')"
	r := analyze(m)
	wantDiag(t, r, "MV006", Error, "guard", `cannot navigate below iterator variable "x"`)
}

func TestNonBooleanConstraintMV007(t *testing.T) {
	m := minimalModel()
	m.Behavioral.States[0].Invariant = "things->size()"
	r := analyze(m)
	wantDiag(t, r, "MV007", Error, "invariant", "Integer, not Boolean")
}

func TestNoInitialStateMV101(t *testing.T) {
	m := minimalModel()
	m.Behavioral.States[0].Initial = false
	r := analyze(m)
	wantDiag(t, r, "MV101", Warning, "no initial state")
}

func TestUnreachableStateAndDeadTransition(t *testing.T) {
	m := minimalModel()
	m.Behavioral.States = append(m.Behavioral.States,
		&uml.State{Name: "orphan", Invariant: "things->size() >= 0"})
	m.Behavioral.Transitions = append(m.Behavioral.Transitions, &uml.Transition{
		From: "orphan", To: "orphan",
		Trigger: uml.Trigger{Method: uml.GET, Resource: "thing"},
	})
	r := analyze(m)
	wantDiag(t, r, "MV102", Warning, `state "orphan"`, "unreachable")
	wantDiag(t, r, "MV103", Warning, "transition GET(thing) orphan->orphan", "dead transition")
}

func TestTrapStateMV104(t *testing.T) {
	// busy only loops on itself: the machine has no terminal state and
	// busy can never return to the initial state.
	m := minimalModel()
	m.Behavioral.Transitions[1].To = "busy"
	r := analyze(m)
	wantDiag(t, r, "MV104", Warning, `state "busy"`, "trap")
}

func TestNoPathToTerminalMV104(t *testing.T) {
	// With a genuine terminal state present, states that cannot reach
	// any terminal are flagged.
	m := minimalModel()
	m.Behavioral.States = append(m.Behavioral.States,
		&uml.State{Name: "done", Invariant: ""})
	m.Behavioral.Transitions[1].To = "busy" // busy loops forever
	m.Behavioral.Transitions = append(m.Behavioral.Transitions, &uml.Transition{
		From: "empty", To: "done",
		Trigger: uml.Trigger{Method: uml.PUT, Resource: "thing"},
		SecReqs: []string{"1.3"},
	})
	r := analyze(m)
	wantDiag(t, r, "MV104", Warning, `state "busy"`, "terminal")
}

func TestContradictoryGuardMV201(t *testing.T) {
	m := minimalModel()
	m.Behavioral.Transitions[1].Guard = "thing.count = 1 and not (thing.count = 1)"
	r := analyze(m)
	wantDiag(t, r, "MV201", Error, "guard", "unsatisfiable", "negation")
}

func TestOverlappingGuardsMV202(t *testing.T) {
	m := minimalModel()
	dup := &uml.Transition{
		From: "busy", To: "busy",
		Trigger: uml.Trigger{Method: uml.DELETE, Resource: "thing"},
		Guard:   "things->size() = 1",
		Effect:  "things->size() = pre(things->size()) - 1",
		SecReqs: []string{"1.2"},
	}
	m.Behavioral.Transitions = append(m.Behavioral.Transitions, dup)
	r := analyze(m)
	wantDiag(t, r, "MV202", Warning, "identical guard")
}

func TestComplementaryGuardsMV202(t *testing.T) {
	m := minimalModel()
	m.Behavioral.Transitions = append(m.Behavioral.Transitions, &uml.Transition{
		From: "busy", To: "busy",
		Trigger: uml.Trigger{Method: uml.DELETE, Resource: "thing"},
		Guard:   "not (things->size() = 1)",
		Effect:  "things->size() = pre(things->size()) - 1",
		SecReqs: []string{"1.2"},
	})
	r := analyze(m)
	wantDiag(t, r, "MV202", Warning, "complementary", "trivially true")
}

func TestPreInGuardAndInvariantMV203(t *testing.T) {
	m := minimalModel()
	m.Behavioral.Transitions[1].Guard = "pre(things->size()) = 1"
	m.Behavioral.States[0].Invariant = "things@pre->size() = 0"
	r := analyze(m)
	wantDiag(t, r, "MV203", Error, "guard", "no pre-state")
	wantDiag(t, r, "MV203", Error, "invariant", "no pre-state")
}

func TestRoleCollisionMV301(t *testing.T) {
	m := minimalModel()
	m.Resource.Resources = append(m.Resource.Resources,
		&uml.ResourceDef{Name: "meta", Kind: uml.KindNormal,
			Attributes: []uml.Attribute{{Name: "v", Type: uml.TypeInteger}}},
		&uml.ResourceDef{Name: "audit", Kind: uml.KindNormal,
			Attributes: []uml.Attribute{{Name: "v", Type: uml.TypeInteger}}},
	)
	m.Resource.Associations = append(m.Resource.Associations,
		uml.Association{From: "thing", To: "meta", Role: "info", Mult: uml.Multiplicity{Min: 1, Max: 1}},
		uml.Association{From: "thing", To: "audit", Role: "info", Mult: uml.Multiplicity{Min: 1, Max: 1}},
	)
	r := analyze(m)
	wantDiag(t, r, "MV301", Error, `resource "thing"`, `role name "info"`, "collide")
	wantDiag(t, r, "MV301", Error, "compose the same URI")
}

func TestUnaddressableTriggerResourceMV302(t *testing.T) {
	m := minimalModel()
	// a and b form an association cycle no root reaches.
	m.Resource.Resources = append(m.Resource.Resources,
		&uml.ResourceDef{Name: "a", Kind: uml.KindNormal,
			Attributes: []uml.Attribute{{Name: "v", Type: uml.TypeInteger}}},
		&uml.ResourceDef{Name: "b", Kind: uml.KindNormal,
			Attributes: []uml.Attribute{{Name: "v", Type: uml.TypeInteger}}},
	)
	m.Resource.Associations = append(m.Resource.Associations,
		uml.Association{From: "a", To: "b", Role: "b", Mult: uml.Multiplicity{Min: 1, Max: 1}},
		uml.Association{From: "b", To: "a", Role: "a", Mult: uml.Multiplicity{Min: 1, Max: 1}},
	)
	m.Behavioral.Transitions = append(m.Behavioral.Transitions, &uml.Transition{
		From: "busy", To: "busy",
		Trigger: uml.Trigger{Method: uml.GET, Resource: "a"},
	})
	r := analyze(m)
	wantDiag(t, r, "MV302", Error, `resource "a"`, "unaddressable")
}

func TestMethodHoleMV303(t *testing.T) {
	r := analyze(minimalModel())
	d := wantDiag(t, r, "MV303", Info, `resource "thing"`, "GET, PUT")
	if d.Severity != Info {
		t.Fatalf("MV303 severity = %s, want info", d.Severity)
	}
}

func TestRouteConflictMV304(t *testing.T) {
	// Two resources composing the same URI, both triggered with GET:
	// monitor.New would refuse the route table.
	m := minimalModel()
	m.Resource.Resources = append(m.Resource.Resources,
		&uml.ResourceDef{Name: "meta", Kind: uml.KindNormal,
			Attributes: []uml.Attribute{{Name: "v", Type: uml.TypeInteger}}},
		&uml.ResourceDef{Name: "audit", Kind: uml.KindNormal,
			Attributes: []uml.Attribute{{Name: "v", Type: uml.TypeInteger}}},
	)
	m.Resource.Associations = append(m.Resource.Associations,
		uml.Association{From: "thing", To: "meta", Role: "info", Mult: uml.Multiplicity{Min: 1, Max: 1}},
		uml.Association{From: "thing", To: "audit", Role: "info", Mult: uml.Multiplicity{Min: 1, Max: 1}},
	)
	m.Behavioral.Transitions = append(m.Behavioral.Transitions,
		&uml.Transition{From: "busy", To: "busy",
			Trigger: uml.Trigger{Method: uml.GET, Resource: "meta"}},
		&uml.Transition{From: "busy", To: "busy",
			Trigger: uml.Trigger{Method: uml.GET, Resource: "audit"}},
	)
	r := analyze(m)
	wantDiag(t, r, "MV304", Error, "same route")
}

func TestUntaggedAuthTransitionMV401(t *testing.T) {
	m := minimalModel()
	m.Behavioral.Transitions[0].SecReqs = nil
	r := analyze(m)
	wantDiag(t, r, "MV401", Warning, "transition POST(thing)", "no security-requirement tag")
}

func TestRequiredSecReqUntracedMV402(t *testing.T) {
	m := minimalModel()
	r := Analyze(m, Config{RequiredSecReqs: []string{"1.1", "9.9"}})
	d := wantDiag(t, r, "MV402", Error, `"9.9"`, "traces to no transition")
	if d.SecReq != "9.9" {
		t.Fatalf("MV402 SecReq = %q, want 9.9", d.SecReq)
	}
	if len(r.ByCode("MV402")) != 1 {
		t.Fatalf("traced requirement 1.1 must not be flagged:\n%s", r.Render())
	}
}

func TestMalformedSecReqTagsMV403(t *testing.T) {
	m := minimalModel()
	m.Behavioral.Transitions[0].SecReqs = []string{"1.1", "1.1", ""}
	r := analyze(m)
	wantDiag(t, r, "MV403", Warning, "repeated")
	wantDiag(t, r, "MV403", Warning, "empty security-requirement tag")
}

func TestPostReferencesCreatedResourceMV501(t *testing.T) {
	m := minimalModel()
	m.Behavioral.Transitions[0].Effect = "thing.count = 1"
	r := analyze(m)
	wantDiag(t, r, "MV501", Warning, "transition POST(thing)", `"thing.count"`, "OclUndefined")
}

func TestDeleteReadsDeletedResourceMV502(t *testing.T) {
	m := minimalModel()
	m.Behavioral.Transitions[1].Effect = "thing.count = 0"
	r := analyze(m)
	wantDiag(t, r, "MV502", Warning, "transition DELETE(thing)", `"thing.count"`, "pre(thing.count)")
}

func TestDeleteCardinalityAndPreAreObservable(t *testing.T) {
	// Asserting deletion through ->size()/isEmpty or through pre() is
	// exactly what the proxy can observe — no MV502.
	m := minimalModel()
	m.Behavioral.Transitions[1].Effect =
		"thing.id->size() = 0 and pre(thing.count) >= 0"
	r := analyze(m)
	if ds := r.ByCode("MV502"); len(ds) != 0 {
		t.Fatalf("cardinality/pre reads flagged:\n%s", r.Render())
	}
}

func TestNestedPreMV503(t *testing.T) {
	m := minimalModel()
	m.Behavioral.Transitions[1].Effect = "pre(things@pre->size()) = 1"
	r := analyze(m)
	wantDiag(t, r, "MV503", Warning, "effect", "nested old-value")
}

func TestShippedModelsAreAnalyzerClean(t *testing.T) {
	models := map[string]*uml.Model{
		"cinder": paper.CinderModel(),
		"nova":   paper.NovaModel(),
	}
	if sliced, err := slice.Model(paper.CinderModel(), slice.BySecReqs("1.4")); err == nil {
		models["cinder-slice"] = sliced
	} else {
		t.Fatalf("slice: %v", err)
	}
	for name, m := range models {
		if r := analyze(m); r.HasErrors() {
			t.Errorf("%s model has analyzer errors:\n%s", name, r.Render())
		}
	}
}

func TestReportDeterministic(t *testing.T) {
	m := minimalModel()
	m.Behavioral.States[0].Invariant = "thing.bogus = 1 and ghost.attr = 2"
	m.Behavioral.Transitions[0].SecReqs = nil
	m.Behavioral.Transitions[1].Guard = "thing.count = 'busy'"
	first := analyze(m).Render()
	for i := 0; i < 10; i++ {
		if got := analyze(m).Render(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	j1, err := analyze(m).RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := analyze(m).RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("JSON output not deterministic")
	}
}

func TestPassSelection(t *testing.T) {
	m := minimalModel()
	m.Behavioral.States[0].Invariant = "ghost.attr = 1" // MV002 (ocl-typecheck)
	m.Behavioral.Transitions[0].SecReqs = nil           // MV401 (secreq)
	r := Analyze(m, Config{Passes: []string{"secreq"}})
	if len(r.ByCode("MV002")) != 0 {
		t.Fatalf("disabled pass ran:\n%s", r.Render())
	}
	wantDiag(t, r, "MV401", Warning, "no security-requirement tag")
}

func TestPassRegistryCodesAreUniqueAndDocumented(t *testing.T) {
	seen := make(map[string]string)
	for _, p := range Passes() {
		if p.Name == "" || p.Doc == "" || len(p.Codes) == 0 {
			t.Errorf("pass %+v is underdocumented", p.Name)
		}
		for _, c := range p.Codes {
			if prev, dup := seen[c]; dup {
				t.Errorf("code %s claimed by %s and %s", c, prev, p.Name)
			}
			seen[c] = p.Name
		}
	}
	if len(seen) < 8 {
		t.Fatalf("registry documents %d codes, want >= 8", len(seen))
	}
}

// TestDiagnosticsDeduped: two identical transitions whose guard reads an
// unknown path yield byte-identical MV002 diagnostics, one per copy; the
// report keeps one.
func TestDiagnosticsDeduped(t *testing.T) {
	m := minimalModel()
	m.Behavioral.Transitions[1].Guard = "things->size() = 1 and thing.bogus = 1"
	dup := *m.Behavioral.Transitions[1]
	m.Behavioral.Transitions = append(m.Behavioral.Transitions, &dup)
	r := analyze(m)
	ds := r.ByCode("MV002")
	seen := make(map[string]bool)
	for _, d := range ds {
		key := d.Loc.String() + "|" + d.Message
		if seen[key] {
			t.Fatalf("duplicate diagnostic survived dedupe: %s: %s", d.Loc, d.Message)
		}
		seen[key] = true
	}
	if len(ds) != 1 {
		t.Fatalf("MV002 count = %d, want 1 on the duplicated guard:\n%s", len(ds), r.Render())
	}
}
