// Package contract implements the paper's contract-generation mechanism
// (Section V): it turns a behavioral model into Design-by-Contract method
// contracts.
//
// For a method m triggering transitions t1..tn:
//
//	pre(m)  =  OR_i  ( inv(source(t_i)) and guard(t_i) )
//	post(m) =  AND_i ( pre_i  implies  inv(target(t_i)) and effect(t_i) )
//
// where each antecedent pre_i is evaluated on the *pre-state* — the monitor
// snapshots the navigation-path values a contract mentions before forwarding
// the request, exactly as the paper stores them "in the local variables of
// the monitor implementation".
//
// Note: the paper's Listing 1 joins the post-condition implications with
// "or"; its prose ("the corresponding post-condition for that method should
// also be established") requires a conjunction, which is what we generate.
// RenderListing can reproduce either spelling.
package contract

import (
	"fmt"
	"sort"
	"strings"

	"cloudmon/internal/ocl"
	"cloudmon/internal/uml"
)

// Case is the contract contribution of a single transition.
type Case struct {
	// Transition is the source transition.
	Transition *uml.Transition
	// Pre is inv(source) and guard — no pre() references.
	Pre ocl.Expr
	// Post is inv(target) and effect — may reference pre() old values.
	Post ocl.Expr
	// Guard is the transition's parsed guard alone (literal true when the
	// model declares none). The planner uses its vocabulary separately
	// from the source invariant's.
	Guard ocl.Expr
	// Effect is the transition's parsed effect alone (literal true when
	// absent). Its current-state paths bound what the transition may
	// change — the post-check's re-fetch frame.
	Effect ocl.Expr
}

// Contract is the combined method contract for one trigger.
type Contract struct {
	// Trigger identifies the method: HTTP verb + resource.
	Trigger uml.Trigger
	// URI is the resource's relative URI from the resource model.
	URI string
	// Cases are the per-transition contributions, in model order.
	Cases []Case
	// Pre is the combined pre-condition: the disjunction of case
	// pre-conditions. Evaluable against the current (pre-call) state.
	Pre ocl.Expr
	// Post is the combined post-condition: the conjunction of
	// pre_i implies post_i, with each antecedent wrapped to evaluate
	// against the pre-state snapshot. Evaluable with ocl.Context{Cur:
	// post-state, Pre: snapshot}.
	Post ocl.Expr
	// SecReqs are the distinct security-requirement tags covered by this
	// method, sorted (traceability, Section IV.C).
	SecReqs []string

	// statePaths caches the StatePaths result. Generate fills it once so
	// the monitor's per-request hot path never re-walks the formulas.
	statePaths []string
	// plan caches the compiled evaluation plan (see Plan).
	plan *Plan
}

// StatePaths returns the distinct navigation paths the contract needs from
// the cloud: the union of paths in Pre and Post, in first-use order. The
// monitor snapshots exactly these before forwarding ("only the values that
// constitute the guards and invariants"). For contracts built by Generate
// the result is precomputed; callers must not mutate it.
func (c *Contract) StatePaths() []string {
	if c.statePaths == nil {
		c.statePaths = computeStatePaths(c)
	}
	return c.statePaths
}

// computeStatePaths walks Pre and Post collecting distinct paths in
// first-use order.
func computeStatePaths(c *Contract) []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range append(ocl.NavPaths(c.Pre), ocl.NavPaths(c.Post)...) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Set is the full collection of generated contracts for a model.
type Set struct {
	// Model is the source model.
	Model *uml.Model
	// Contracts holds one contract per trigger, in trigger order.
	Contracts []*Contract
}

// For returns the contract for the trigger, if one was generated.
func (s *Set) For(tr uml.Trigger) (*Contract, bool) {
	for _, c := range s.Contracts {
		if c.Trigger == tr {
			return c, true
		}
	}
	return nil, false
}

// SecReqs returns the distinct security-requirement tags across all
// contracts, sorted.
func (s *Set) SecReqs() []string {
	set := make(map[string]bool)
	for _, c := range s.Contracts {
		for _, r := range c.SecReqs {
			set[r] = true
		}
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Generate derives the contract set from a validated model. It parses every
// OCL fragment once, validates the paper's well-formedness rules (guards and
// invariants must not use pre(); navigation heads must be model resources or
// the `user` authorization context) and combines transitions per trigger.
func Generate(m *uml.Model) (*Set, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("contract: invalid model: %w", err)
	}
	vocab := VocabularyOf(m.Resource)
	invs := make(map[string]ocl.Expr, len(m.Behavioral.States))
	for _, s := range m.Behavioral.States {
		inv, err := ocl.Parse(s.Invariant)
		if err != nil {
			return nil, fmt.Errorf("contract: state %s invariant: %w", s.Name, err)
		}
		if err := ocl.CheckNoPre(inv); err != nil {
			return nil, fmt.Errorf("contract: state %s invariant: %w", s.Name, err)
		}
		if err := ocl.CheckVocabulary(inv, vocab); err != nil {
			return nil, fmt.Errorf("contract: state %s invariant: %w", s.Name, err)
		}
		invs[s.Name] = inv
	}

	uris := m.Resource.URIs()
	set := &Set{Model: m}
	for _, tr := range m.Behavioral.Triggers() {
		transitions := m.Behavioral.TransitionsFor(tr)
		c := &Contract{Trigger: tr, URI: uris[tr.Resource]}
		secSet := make(map[string]bool)
		pres := make([]ocl.Expr, 0, len(transitions))
		posts := make([]ocl.Expr, 0, len(transitions))
		for _, t := range transitions {
			guard, err := ocl.Parse(t.Guard)
			if err != nil {
				return nil, fmt.Errorf("contract: %s guard: %w", tr, err)
			}
			if err := ocl.CheckNoPre(guard); err != nil {
				return nil, fmt.Errorf("contract: %s guard: %w", tr, err)
			}
			if err := ocl.CheckVocabulary(guard, vocab); err != nil {
				return nil, fmt.Errorf("contract: %s guard: %w", tr, err)
			}
			effect, err := ocl.Parse(t.Effect)
			if err != nil {
				return nil, fmt.Errorf("contract: %s effect: %w", tr, err)
			}
			if err := ocl.CheckVocabulary(effect, vocab); err != nil {
				return nil, fmt.Errorf("contract: %s effect: %w", tr, err)
			}
			casePre := conj(invs[t.From], guard)
			casePost := conj(invs[t.To], effect)
			c.Cases = append(c.Cases, Case{
				Transition: t,
				Pre:        casePre,
				Post:       casePost,
				Guard:      guard,
				Effect:     effect,
			})
			pres = append(pres, casePre)
			// The antecedent refers to the state before the call: wrap it
			// in pre() so evaluation reads the snapshot.
			posts = append(posts, ocl.Implies(&ocl.PreExpr{Expr: casePre}, casePost))
			for _, s := range t.SecReqs {
				secSet[s] = true
			}
		}
		c.Pre = ocl.Or(pres...)
		c.Post = ocl.And(posts...)
		for s := range secSet {
			c.SecReqs = append(c.SecReqs, s)
		}
		sort.Strings(c.SecReqs)
		c.statePaths = computeStatePaths(c)
		c.plan = compilePlan(c)
		set.Contracts = append(set.Contracts, c)
	}
	return set, nil
}

// conj conjoins two expressions, dropping literal-true sides so rendered
// contracts stay readable.
func conj(a, b ocl.Expr) ocl.Expr {
	if isTrue(a) {
		return b
	}
	if isTrue(b) {
		return a
	}
	return &ocl.Binary{Op: ocl.OpAnd, L: a, R: b}
}

func isTrue(e ocl.Expr) bool {
	l, ok := e.(*ocl.Lit)
	return ok && l.Value.Kind == ocl.KindBool && l.Value.Bool
}

// VocabularyOf builds the navigation vocabulary from the resource model:
// a path head must be a declared resource (its second segment, when the
// resource is known, must be one of its attributes or outgoing association
// roles) or the `user` authorization context, which the monitor populates
// from the requester's credentials. The static analyzer (package analysis)
// shares this definition so modelvet and the generator agree on what a
// well-formed path is.
func VocabularyOf(rm *uml.ResourceModel) ocl.VocabularyFunc {
	type resourceVocab struct {
		segments map[string]bool
	}
	resources := make(map[string]resourceVocab, len(rm.Resources))
	for _, r := range rm.Resources {
		v := resourceVocab{segments: make(map[string]bool)}
		for _, a := range r.Attributes {
			v.segments[a.Name] = true
		}
		for _, assoc := range rm.AssociationsFrom(r.Name) {
			v.segments[assoc.Role] = true
		}
		resources[r.Name] = v
	}
	return func(path []string) bool {
		if len(path) == 0 {
			return false
		}
		if path[0] == "user" {
			return true
		}
		v, ok := resources[path[0]]
		if !ok {
			return false
		}
		if len(path) == 1 {
			return true
		}
		return v.segments[path[1]]
	}
}

// ListingStyle selects how RenderListing joins the post-condition cases.
type ListingStyle int

// Listing styles.
const (
	// StyleConjunction joins post implications with "and" (the semantics
	// the paper's prose defines, and what the monitor evaluates).
	StyleConjunction ListingStyle = iota + 1
	// StylePaper joins post implications with "or", reproducing the exact
	// spelling of the paper's Listing 1.
	StylePaper
)

// RenderListing renders the contract in the format of the paper's
// Listing 1:
//
//	PreCondition(DELETE(/projects/{project_id}/volumes/{volume_id})):
//	[(case1) or
//	(case2) or
//	(case3)]
//	PostCondition(...):
//	[((case1) => post1) and ...]
func RenderListing(c *Contract, style ListingStyle) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "PreCondition(%s(%s)):\n[", c.Trigger.Method, c.URI)
	for i, cs := range c.Cases {
		if i > 0 {
			sb.WriteString(" or\n")
		}
		fmt.Fprintf(&sb, "(%s)", cs.Pre)
	}
	sb.WriteString("]\n")
	joiner := " and\n"
	if style == StylePaper {
		joiner = " or\n"
	}
	fmt.Fprintf(&sb, "PostCondition(%s(%s)):\n[", c.Trigger.Method, c.URI)
	for i, cs := range c.Cases {
		if i > 0 {
			sb.WriteString(joiner)
		}
		fmt.Fprintf(&sb, "((%s) => %s)", cs.Pre, cs.Post)
	}
	sb.WriteString("]\n")
	return sb.String()
}

// RenderSet renders every contract in the set in Listing-1 format,
// separated by blank lines.
func RenderSet(s *Set, style ListingStyle) string {
	parts := make([]string, 0, len(s.Contracts))
	for _, c := range s.Contracts {
		parts = append(parts, RenderListing(c, style))
	}
	return strings.Join(parts, "\n")
}
