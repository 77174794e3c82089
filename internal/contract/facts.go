// Facts: the statically proven clause knowledge a plan carries.
//
// Everything in a generated contract is derived from the model, so a
// whole class of per-request work is decidable offline. The symbolic
// interpreter (internal/analysis/symbolic) proves three families of
// facts at plan-compile time:
//
//   - static clauses: a disjunct (or an implication antecedent) whose
//     folded form decides to the same value for every state — the
//     monitor assigns the value without evaluating or fetching;
//   - exclusions: a disjunct containing an element refuted by an
//     already-true sibling — the monitor evaluates just that witness
//     element and, when it observes definite false, skips the rest of
//     the disjunct (soundness argument in DESIGN.md §3.5: every element
//     before the witness is proven error-free or is shared with the
//     true sibling, and the witness itself is confirmed at runtime);
//   - dead paths: state paths no clause can demand once static clauses
//     are pruned — they drop out of the plan's fetch universe.
//
// Every fact carries a human-readable reason trace, and a test
// (TestFactsAgreeWithFullEvaluation) checks every fact of the shipped
// models against ocl.Eval of the full clause over random states, so an
// unsound fact cannot hide.
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
	// every state — the monitor assigns it without evaluation.
	Static *ocl.Value
	// SubsumedBy lists sibling disjuncts this disjunct entails (model
	// indexes): whenever this one holds, so do they. Diagnostic only
	// (MV702) — entailment is proven under idealized types, so the
	// runtime never acts on it without observation.
	SubsumedBy []int
	// Reason is the fact's trace ("why is this sound"), empty when the
	// pass proved nothing beyond the fold.
	Reason string
}

// Exclusion is a witness-based skip for one disjunct: once the provider
// disjunct is definitely true, evaluating just the witness element and
// observing definite false decides the whole disjunct false.
type Exclusion struct {
	// Provider is the case index whose runtime-true verdict arms this
	// exclusion.
	Provider int
	// Witness is the refuted element the monitor must still evaluate;
	// only a definite-false observation licenses the skip.
	Witness ocl.Expr
	// WitnessPos is the witness's position in the disjunct's element
	// list; Elements is the list's length (what the skip saves).
	WitnessPos, Elements int
	// Reason is the fact's trace.
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
	// the consequent (with its pre-state top-up fetches) is never
	// touched.
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

// Facts is the per-plan artifact of the symbolic pass. All slices are
// indexed by case (model order); Exclusions[j] lists the skips available
// for disjunct j, in provider order.
type Facts struct {
	Pre        []PreFact
	Exclusions [][]Exclusion
	Post       []PostFact
	DeadPaths  []DeadPath
}

// computeFacts runs the symbolic interpreter over the contract's cases.
func computeFacts(c *Contract, p *Plan) *Facts {
	f := &Facts{
		Pre:        make([]PreFact, len(c.Cases)),
		Exclusions: make([][]Exclusion, len(c.Cases)),
		Post:       make([]PostFact, len(c.Cases)),
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
	// Witness exclusions between every ordered pair of disjuncts. The
	// provider must become definitely true at runtime before the skip
	// arms, so both orders are kept — plan order decides which fires.
	for i := range c.Cases {
		provSet := make(map[string]bool, len(elements[i]))
		var provAtoms []symbolic.Atom
		for _, el := range elements[i] {
			provSet[el.String()] = true
			if a, ok := symbolic.AtomOf(el); ok {
				provAtoms = append(provAtoms, a)
			}
		}
		for j := range c.Cases {
			if i == j || f.Pre[j].Static != nil {
				continue
			}
			if ex, ok := findExclusion(i, elements[j], provSet, provAtoms); ok {
				f.Exclusions[j] = append(f.Exclusions[j], ex)
			}
		}
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

// findExclusion scans the target disjunct's elements in evaluation order
// for a witness refuted by the provider. The scan may only walk past
// elements that are error-free in every state or literally shared with
// the (runtime-true, hence error-free here) provider — otherwise skipping
// them could hide an evaluation error the full clause surfaces.
func findExclusion(provider int, target []ocl.Expr, provSet map[string]bool, provAtoms []symbolic.Atom) (Exclusion, bool) {
	for m, el := range target {
		if a, ok := symbolic.AtomOf(el); ok {
			for _, pa := range provAtoms {
				if pa.Refutes(a) {
					return Exclusion{
						Provider:   provider,
						Witness:    el,
						WitnessPos: m,
						Elements:   len(target),
						Reason: fmt.Sprintf(
							"element %d %q contradicts %q of disjunct %d; elements before it are error-free or shared with that disjunct",
							m, el, renderAtom(pa), provider),
					}, true
				}
			}
		}
		if !symbolic.NeverErrors(el) && !provSet[el.String()] {
			return Exclusion{}, false
		}
	}
	return Exclusion{}, false
}

// renderAtom shows an atom in the reason trace.
func renderAtom(a symbolic.Atom) string {
	if a.Pair {
		return fmt.Sprintf("%s %s %s", a.Subject, a.Op, a.Other)
	}
	return fmt.Sprintf("%s %s %d", a.Subject, a.Op, a.Const)
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

// Check machine-verifies the artifact against its contract: indexes in
// range, witnesses genuinely elements of their disjunct at the recorded
// position, every element before a witness error-free or shared with the
// provider, static values re-derivable, and dead paths absent from every
// live clause. It re-derives each condition independently of
// computeFacts's scan order, so a bug in fact construction fails loudly;
// tests and the modelvet -facts report run it over every model.
func (f *Facts) Check(c *Contract) error {
	if len(f.Pre) != len(c.Cases) || len(f.Post) != len(c.Cases) || len(f.Exclusions) != len(c.Cases) {
		return fmt.Errorf("facts: slice lengths disagree with %d cases", len(c.Cases))
	}
	for i, pf := range f.Pre {
		if pf.Static != nil {
			v, reason := staticValue(pf.Folded)
			if v == nil || !v.Equal(*pf.Static) {
				return fmt.Errorf("facts: case %d static value %s not re-derivable (%s)", i, pf.Static, reason)
			}
		}
		for _, ex := range f.Exclusions[i] {
			if ex.Provider < 0 || ex.Provider >= len(c.Cases) || ex.Provider == i {
				return fmt.Errorf("facts: case %d exclusion has bad provider %d", i, ex.Provider)
			}
			elems := symbolic.Elements(pf.Folded)
			if ex.Elements != len(elems) || ex.WitnessPos < 0 || ex.WitnessPos >= len(elems) {
				return fmt.Errorf("facts: case %d exclusion positions out of range", i)
			}
			if elems[ex.WitnessPos].String() != ex.Witness.String() {
				return fmt.Errorf("facts: case %d witness %q is not element %d", i, ex.Witness, ex.WitnessPos)
			}
			provSet := make(map[string]bool)
			for _, el := range symbolic.Elements(f.Pre[ex.Provider].Folded) {
				provSet[el.String()] = true
			}
			for _, el := range elems[:ex.WitnessPos] {
				if !symbolic.NeverErrors(el) && !provSet[el.String()] {
					return fmt.Errorf("facts: case %d element %q before witness may error and is not shared with provider %d",
						i, el, ex.Provider)
				}
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

// deadPaths lists the plan's eager paths that no clause can demand once
// static clauses are pruned.
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
