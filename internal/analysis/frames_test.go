package analysis

import (
	"testing"

	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

func TestDeadEffectMV600(t *testing.T) {
	m := minimalModel()
	// The effect now also pins thing.count, which no invariant or guard
	// ever reads — the post-check verifies a change nothing depends on.
	m.Behavioral.Transitions[0].Effect =
		"things->size() = pre(things->size()) + 1 and thing.count = 0"
	r := analyze(m)
	wantDiag(t, r, "MV600", Warning, "effect", `dead effect`, `"thing.count"`)
}

func TestUnguardedDisjunctMV601(t *testing.T) {
	m := minimalModel()
	// Give DELETE(thing) a second, guardless case out of a state whose
	// invariant ignores the trigger's guard vocabulary (things->size()).
	m.Behavioral.States = append(m.Behavioral.States,
		&uml.State{Name: "drained", Invariant: "thing.count = 0"})
	m.Behavioral.Transitions = append(m.Behavioral.Transitions, &uml.Transition{
		From: "drained", To: "empty",
		Trigger: uml.Trigger{Method: uml.DELETE, Resource: "thing"},
		Effect:  "things->size() = pre(things->size())",
		SecReqs: []string{"1.2"},
	})
	// Keep reachability quiet: drained is reachable via a POST from busy.
	m.Behavioral.Transitions = append(m.Behavioral.Transitions, &uml.Transition{
		From: "busy", To: "drained",
		Trigger: uml.Trigger{Method: uml.PUT, Resource: "thing"},
		Guard:   "thing.count = 0",
		Effect:  "things->size() = pre(things->size())",
		SecReqs: []string{"1.2"},
	})
	r := analyze(m)
	wantDiag(t, r, "MV601", Warning, "DELETE(thing) drained->empty",
		"unguarded disjunct", "things")
}

func TestMV601QuietWhenTriggerHasNoGuards(t *testing.T) {
	m := minimalModel()
	// Strip the only guard: an empty vocabulary cannot be ignored.
	m.Behavioral.Transitions[1].Guard = ""
	r := analyze(m)
	if got := len(r.ByCode("MV601")); got != 0 {
		t.Fatalf("MV601 fired %d times on a guardless trigger:\n%s", got, r.Render())
	}
}

// TestFramesQuietOnShippedModels: the paper's models use their effect
// frames and guard vocabularies fully — the advisory MV6xx lints must stay
// silent on them.
func TestFramesQuietOnShippedModels(t *testing.T) {
	for name, m := range map[string]*uml.Model{
		"cinder":  paper.CinderModel(),
		"nova":    paper.NovaModel(),
		"minimal": minimalModel(),
	} {
		r := analyze(m)
		for _, code := range []string{"MV600", "MV601"} {
			if ds := r.ByCode(code); len(ds) != 0 {
				t.Errorf("%s model: %s fired:\n%s", name, code, r.Render())
			}
		}
	}
}

// TestMV601QuietOnTautologyGuard: a written guard that reads no state and
// evaluates to true is a deliberate "always fires", not a forgotten guard
// — MV601 must not flag it even though it reads none of the trigger's
// vocabulary. A closed guard that is false still gets MV601.
func TestMV601QuietOnTautologyGuard(t *testing.T) {
	for _, c := range []struct {
		guard string
		want  int
	}{{"1 = 1", 0}, {"1 = 2", 1}} {
		m := minimalModel()
		m.Behavioral.States = append(m.Behavioral.States,
			&uml.State{Name: "drained", Invariant: "thing.count = 0"})
		m.Behavioral.Transitions = append(m.Behavioral.Transitions, &uml.Transition{
			From: "drained", To: "empty",
			Trigger: uml.Trigger{Method: uml.DELETE, Resource: "thing"},
			Guard:   c.guard,
			Effect:  "things->size() = pre(things->size())",
			SecReqs: []string{"1.2"},
		})
		m.Behavioral.Transitions = append(m.Behavioral.Transitions, &uml.Transition{
			From: "busy", To: "drained",
			Trigger: uml.Trigger{Method: uml.PUT, Resource: "thing"},
			Guard:   "thing.count = 0",
			Effect:  "things->size() = pre(things->size())",
			SecReqs: []string{"1.2"},
		})
		r := analyze(m)
		if got := len(r.ByCode("MV601")); got != c.want {
			t.Fatalf("guard %q: MV601 fired %d times, want %d:\n%s", c.guard, got, c.want, r.Render())
		}
	}
}
