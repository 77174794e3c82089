// Evaluation plans: the compiled, demand-driven form of a contract.
//
// Eager checking snapshots the union of every path a contract could ever
// mention — twice per request. The plan decomposes the contract back into
// the clauses Generate built it from (pre(m)'s disjuncts, post(m)'s
// per-transition implications) and records exactly which state paths each
// clause reads and in which context (current vs pre-state), so the monitor
// reads the pre-state in one call and re-reads after the forward only what
// an active transition may have changed.
package contract

import "cloudmon/internal/ocl"

// PreClause is one disjunct of pre(m): inv(source) and guard for a single
// transition. All its paths read the current state (guards and invariants
// cannot use pre()).
type PreClause struct {
	// Index is the clause's position in Contract.Cases (model order).
	Index int
	// Paths are the distinct current-state paths the disjunct reads, in
	// first-use order.
	Paths []string
}

// PostClause is one conjunct of post(m): casePre implies
// (inv(target) and effect) for a single transition.
type PostClause struct {
	// Index is the clause's position in Contract.Cases.
	Index int
	// CurPaths are the consequent's current-state paths — what the
	// post-check must observe after the call for this clause.
	CurPaths []string
	// PrePaths are the consequent's pre()/@pre references — the pre-state
	// paths the post-check reads beyond what the antecedent already
	// demanded. They must be captured before forwarding (they are
	// unobservable afterwards); the antecedent itself is not re-evaluated
	// at post time, its pre-phase verdict is reused.
	PrePaths []string
	// Touched are the current-state paths of the transition's effect —
	// the frame of what the transition may change. Post-state values of
	// paths outside every active clause's frame can be reused from the
	// pre-state snapshot instead of re-fetched.
	Touched []string
}

// Plan is a contract compiled for demand-driven evaluation. Both clause
// lists are in model order, so attribution follows the model.
type Plan struct {
	// Pre holds the pre-condition disjuncts.
	Pre []PreClause
	// Post holds the post-condition implications.
	Post []PostClause
	// PrePaths is the union of all pre-clause paths in first-use order —
	// equal as a set to the paths a whole pre-condition snapshot fetches.
	PrePaths []string
	// Compiled is the closure-chain evaluator set (see compile.go):
	// every clause translated once into a slot-model program, with a
	// slot for every path above.
	Compiled *Compiled
}

// Plan returns the contract's compiled evaluation plan. For contracts built
// by Generate the plan is precomputed; callers must not mutate it.
func (c *Contract) Plan() *Plan {
	if c.plan == nil {
		c.plan = compilePlan(c)
	}
	return c.plan
}

// compilePlan decomposes the contract into per-clause path demands.
func compilePlan(c *Contract) *Plan {
	p := &Plan{}
	seen := make(map[string]bool)
	for i, cs := range c.Cases {
		cur, _ := ocl.ContextPaths(cs.Pre)
		p.Pre = append(p.Pre, PreClause{Index: i, Paths: cur})
		for _, path := range cur {
			if !seen[path] {
				seen[path] = true
				p.PrePaths = append(p.PrePaths, path)
			}
		}
	}
	for i, cs := range c.Cases {
		// Only the consequent runs at post time — the antecedent's verdict
		// is carried over from the pre-check, so its paths never need a
		// post-state (or top-up) fetch.
		cur, pre := ocl.ContextPaths(cs.Post)
		touched, _ := ocl.ContextPaths(cs.Effect)
		p.Post = append(p.Post, PostClause{
			Index:    i,
			CurPaths: cur,
			PrePaths: pre,
			Touched:  touched,
		})
	}
	p.Compiled = compileContract(c, p)
	return p
}
