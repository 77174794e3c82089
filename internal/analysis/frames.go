// The frames pass (MV6xx) checks the model's effect frames and disjunct
// vocabularies against what the evaluation planner can exploit: effects
// that change state nothing reads, and pre-condition disjuncts that ignore
// the guard vocabulary their trigger discriminates on. Both are legal, both
// almost always mean the model says less than the modeler thinks.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"cloudmon/internal/ocl"
	"cloudmon/internal/uml"
)

func framesPass() Pass {
	return Pass{
		Name: "frames",
		Doc:  "effect frames and disjunct vocabulary vs the paths guards and invariants read",
		Codes: []string{
			"MV600", // dead effect: changed path read by no invariant or guard
			"MV601", // unguarded disjunct: case shares no paths with the trigger's guard vocabulary
		},
		Run: runFrames,
	}
}

func runFrames(ctx *Context) []Diagnostic {
	var ds []Diagnostic

	// Paths some invariant or guard reads (current-state context), plus the
	// per-state invariant and per-transition guard path sets.
	read := make(map[string]bool)
	invPaths := make(map[string][]string)
	guardPaths := make(map[*uml.Transition][]string)
	guardExprs := make(map[*uml.Transition]ocl.Expr)
	for _, me := range ctx.exprs {
		if me.Expr == nil {
			continue
		}
		cur, _ := ocl.ContextPaths(me.Expr)
		switch me.Kind {
		case exprInvariant:
			invPaths[me.State.Name] = cur
		case exprGuard:
			guardPaths[me.Transition] = cur
			guardExprs[me.Transition] = me.Expr
		case exprEffect:
			continue
		}
		for _, p := range cur {
			read[p] = true
		}
	}

	// MV600 — a path the effect changes that no invariant or guard ever
	// reads: the monitor re-fetches and verifies it after every call, yet
	// no pre-condition can depend on it. Either the model under-specifies
	// its states or the effect constrains the wrong attribute.
	for _, me := range ctx.exprs {
		if me.Kind != exprEffect || me.Expr == nil {
			continue
		}
		touched, _ := ocl.ContextPaths(me.Expr)
		for _, p := range touched {
			if !read[p] {
				ds = append(ds, Diagnostic{
					Code:     "MV600",
					Severity: Warning,
					Pass:     "frames",
					Loc:      me.Loc,
					Message: fmt.Sprintf(
						"dead effect: changes %q but no state invariant or guard reads it", p),
				})
			}
		}
	}

	// MV601 — the trigger's guard vocabulary is the union of the paths its
	// transitions' guards read; it is what tells the generated disjuncts of
	// pre(m) apart. A case whose inv(source)+guard shares no path with that
	// vocabulary is decided blind to it — typically a transition whose
	// guard was forgotten while its siblings discriminate on state.
	byTrigger := make(map[uml.Trigger][]*uml.Transition)
	var order []uml.Trigger
	for _, t := range ctx.Model.Behavioral.Transitions {
		if _, ok := byTrigger[t.Trigger]; !ok {
			order = append(order, t.Trigger)
		}
		byTrigger[t.Trigger] = append(byTrigger[t.Trigger], t)
	}
	for _, trig := range order {
		vocab := make(map[string]bool)
		for _, t := range byTrigger[trig] {
			for _, p := range guardPaths[t] {
				vocab[p] = true
			}
		}
		if len(vocab) == 0 {
			continue
		}
		var vocabList []string
		for p := range vocab {
			vocabList = append(vocabList, p)
		}
		sort.Strings(vocabList)
		for _, t := range byTrigger[trig] {
			shares := false
			for _, p := range append(append([]string(nil), invPaths[t.From]...), guardPaths[t]...) {
				if vocab[p] {
					shares = true
					break
				}
			}
			if !shares {
				// A written guard that reads no state and evaluates to
				// true is an explicit tautology — the modeler said "always
				// fires" on purpose. Only a missing guard is a forgotten one.
				if g := guardExprs[t]; g != nil && strings.TrimSpace(t.Guard) != "" && closedTrue(g) {
					continue
				}
				ds = append(ds, Diagnostic{
					Code:     "MV601",
					Severity: Warning,
					Pass:     "frames",
					Loc:      transitionLoc(t, "guard"),
					Message: fmt.Sprintf(
						"unguarded disjunct: this case of %s reads none of the trigger's guard vocabulary [%s]",
						trig, strings.Join(vocabList, " ")),
				})
			}
		}
	}
	return ds
}

// closedTrue reports whether a guard reads no state, current or pre(),
// and evaluates to true: its value is the same in every state.
func closedTrue(g ocl.Expr) bool {
	if cur, pre := ocl.ContextPaths(g); len(cur) != 0 || len(pre) != 0 {
		return false
	}
	v, err := ocl.Eval(g, ocl.Context{})
	return err == nil && v.Kind == ocl.KindBool && v.Bool
}
