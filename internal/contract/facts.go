// Facts: the statically proven clause knowledge a plan carries.
//
// Everything in a generated contract is derived from the model, so some
// clause knowledge is decidable offline. The symbolic interpreter
// (internal/analysis/symbolic) proves it at plan-compile time:
//
//   - folded forms: each clause with its environment-independent
//     subexpressions constant-folded — the forms the compiler compiles;
//   - static clauses: a disjunct (or an implication antecedent) whose
//     folded form decides to the same value for every state — it
//     compiles to a constant program, so it reads no path;
//   - subsumption: a disjunct that entails a sibling (diagnostic only);
//   - dead paths: state paths no clause can demand once static clauses
//     are constant — they drop out of the plan's fetch universe.
//
// The monitor acts on none of these directly: it runs the compiled
// programs. The facts feed modelvet's MV700-series diagnostics and its
// -facts report. Every fact carries a human-readable reason trace, and a
// test (TestFactsAgreeWithFullEvaluation) checks every fact of the
// shipped models against ocl.Eval of the full clause over random states,
// so an unsound fact cannot hide.
package contract

import (
	"fmt"

	"cloudmon/internal/analysis/symbolic"
	"cloudmon/internal/ocl"
)

// PreFact is what the symbolic pass proved about one pre-condition
// disjunct (indexed like Contract.Cases).
type PreFact struct {
	// Folded is the disjunct with environment-independent subexpressions
	// constant-folded. Evaluating it is value- and error-equivalent to
	// evaluating the original for every state; the monitor evaluates
	// this form.
	Folded ocl.Expr
	// Rewritten marks that folding changed the rendered formula.
	Rewritten bool
	// Static, when non-nil, is the value the disjunct evaluates to in
	// every state — its compiled program returns it without a demand.
	Static *ocl.Value
	// SubsumedBy lists sibling disjuncts this disjunct entails (model
	// indexes): whenever this one holds, so do they. Diagnostic only
	// (MV702) — entailment is proven under idealized types.
	SubsumedBy []int
	// Reason is the fact's trace ("why is this sound"), empty when the
	// pass proved nothing beyond the fold.
	Reason string
}

// PostFact is what the symbolic pass proved about one post-condition
// implication (indexed like Contract.Cases).
type PostFact struct {
	// Folded is the constant-folded consequent, evaluation-equivalent to
	// the original.
	Folded ocl.Expr
	// Rewritten marks that folding changed the rendered formula.
	Rewritten bool
	// AnteStatic mirrors the antecedent's PreFact.Static: when it is the
	// boolean false, the implication holds vacuously in every state and
	// the consequent (with its pre-state top-up fetches) is never run.
	AnteStatic *ocl.Value
	// Reason is the fact's trace, empty when nothing was proven.
	Reason string
}

// Vacuous reports that the implication's antecedent is statically false:
// the implication holds in every state and the consequent — with its
// pre-state top-up fetches — is never run.
func (pf *PostFact) Vacuous() bool {
	return pf.AnteStatic != nil && pf.AnteStatic.Kind == ocl.KindBool && !pf.AnteStatic.Bool
}

// DeadPath is a state path no clause can demand under the facts.
type DeadPath struct {
	Path   string
	Reason string
}

// Facts is the per-plan artifact of the symbolic pass. Pre and Post are
// indexed by case (model order).
type Facts struct {
	Pre       []PreFact
	Post      []PostFact
	DeadPaths []DeadPath
}

// computeFacts runs the symbolic interpreter over the contract's cases.
func computeFacts(c *Contract, p *Plan) *Facts {
	f := &Facts{
		Pre:  make([]PreFact, len(c.Cases)),
		Post: make([]PostFact, len(c.Cases)),
	}
	elements := make([][]ocl.Expr, len(c.Cases))
	for i, cs := range c.Cases {
		folded := symbolic.Fold(cs.Pre)
		pf := PreFact{Folded: folded, Rewritten: folded.String() != cs.Pre.String()}
		if v, reason := staticValue(folded); v != nil {
			pf.Static = v
			pf.Reason = "pre-condition disjunct " + reason
		}
		f.Pre[i] = pf
		elements[i] = symbolic.Elements(folded)
	}
	// Subsumption (diagnostics): j entails i when every element of i is
	// covered by an element of j.
	for j := range c.Cases {
		for i := range c.Cases {
			if i != j && entailsAll(elements[j], elements[i]) {
				f.Pre[j].SubsumedBy = append(f.Pre[j].SubsumedBy, i)
			}
		}
	}
	for i, cs := range c.Cases {
		folded := symbolic.Fold(cs.Post)
		pf := PostFact{Folded: folded, Rewritten: folded.String() != cs.Post.String()}
		if s := f.Pre[i].Static; s != nil {
			pf.AnteStatic = s
			if s.Kind == ocl.KindBool && !s.Bool {
				pf.Reason = "antecedent is statically false: implication holds vacuously, consequent and its fetches are skipped"
			} else {
				pf.Reason = fmt.Sprintf("antecedent is statically %s", *s)
			}
		}
		f.Post[i] = pf
	}
	f.DeadPaths = deadPaths(f, p)
	return f
}

// staticValue reports the environment-independent value of a folded
// clause, if the decision procedure proves one.
func staticValue(folded ocl.Expr) (*ocl.Value, string) {
	if l, ok := folded.(*ocl.Lit); ok {
		v := l.Value
		return &v, fmt.Sprintf("folds to %s for every state", v)
	}
	var v ocl.Value
	switch symbolic.Decide(folded) {
	case symbolic.True:
		v = ocl.BoolVal(true)
	case symbolic.False:
		v = ocl.BoolVal(false)
	case symbolic.Undef:
		v = ocl.Undefined()
	default:
		return nil, ""
	}
	return &v, fmt.Sprintf("decides to %s for every state", v)
}

// entailsAll reports whether every element of sup is covered by an
// element of sub — syntactically identical or atom-entailed — i.e.
// sub => sup under the idealized reading.
func entailsAll(sub, sup []ocl.Expr) bool {
	subSet := make(map[string]bool, len(sub))
	var subAtoms []symbolic.Atom
	for _, el := range sub {
		subSet[el.String()] = true
		if a, ok := symbolic.AtomOf(el); ok {
			subAtoms = append(subAtoms, a)
		}
	}
	for _, el := range sup {
		if subSet[el.String()] {
			continue
		}
		a, ok := symbolic.AtomOf(el)
		if !ok {
			return false
		}
		covered := false
		for _, sa := range subAtoms {
			if sa.Entails(a) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// Check machine-verifies the artifact against its contract: slice
// lengths match the cases, static values are re-derivable, and dead
// paths are absent from every live clause. It re-derives each condition
// independently of computeFacts, so a bug in fact construction fails
// loudly; tests and the modelvet -facts report run it over every model.
func (f *Facts) Check(c *Contract) error {
	if len(f.Pre) != len(c.Cases) || len(f.Post) != len(c.Cases) {
		return fmt.Errorf("facts: slice lengths disagree with %d cases", len(c.Cases))
	}
	for i, pf := range f.Pre {
		if pf.Static != nil {
			v, reason := staticValue(pf.Folded)
			if v == nil || !v.Equal(*pf.Static) {
				return fmt.Errorf("facts: case %d static value %s not re-derivable (%s)", i, pf.Static, reason)
			}
		}
	}
	demandable := make(map[string]bool)
	for i := range f.Pre {
		if f.Pre[i].Static == nil {
			for _, p := range ocl.NavPaths(f.Pre[i].Folded) {
				demandable[p] = true
			}
		}
		if !f.Post[i].Vacuous() {
			for _, p := range ocl.NavPaths(f.Post[i].Folded) {
				demandable[p] = true
			}
		}
	}
	for _, d := range f.DeadPaths {
		if demandable[d.Path] {
			return fmt.Errorf("facts: dead path %s is demandable", d.Path)
		}
	}
	return nil
}

// deadPaths lists the plan's paths that no clause can demand once static
// clauses compile to constants.
func deadPaths(f *Facts, p *Plan) []DeadPath {
	demand := make(map[string]bool)
	for i := range f.Pre {
		if f.Pre[i].Static == nil {
			for _, path := range ocl.NavPaths(f.Pre[i].Folded) {
				demand[path] = true
			}
		}
	}
	for i := range f.Post {
		if f.Post[i].Vacuous() {
			continue // consequent never evaluated
		}
		for _, path := range ocl.NavPaths(f.Post[i].Folded) {
			demand[path] = true
		}
	}
	// The universe is the union of every clause's declared paths.
	var universe []string
	seen := make(map[string]bool)
	add := func(paths []string) {
		for _, path := range paths {
			if !seen[path] {
				seen[path] = true
				universe = append(universe, path)
			}
		}
	}
	add(p.PrePaths)
	for i := range p.Post {
		add(p.Post[i].CurPaths)
		add(p.Post[i].PrePaths)
	}
	var dead []DeadPath
	for _, path := range universe {
		if !demand[path] {
			dead = append(dead, DeadPath{
				Path:   path,
				Reason: "every clause reading it is statically decided; no evaluation can demand it",
			})
		}
	}
	return dead
}
