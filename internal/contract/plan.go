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
		cps := make([]casePaths, len(c.Cases))
		for i, cs := range c.Cases {
			cps[i].pre, _ = ocl.ContextPaths(cs.Pre)
			cps[i].postCur, cps[i].postPre = ocl.ContextPaths(cs.Post)
			cps[i].touched, _ = ocl.ContextPaths(cs.Effect)
		}
		c.plan = compilePlan(c, cps)
	}
	return c.plan
}

// casePaths are the state paths one case's clauses read, each list in
// first-use order: its pre-condition disjunct's, its consequent's in the
// current and in the pre-state, and its effect's current-state paths.
type casePaths struct {
	pre, postCur, postPre, touched []string
}

// compilePlan decomposes the contract into per-clause path demands, one
// casePaths per case.
func compilePlan(c *Contract, cps []casePaths) *Plan {
	p := &Plan{
		Pre:  make([]PreClause, len(cps)),
		Post: make([]PostClause, len(cps)),
	}
	for i, cp := range cps {
		p.Pre[i] = PreClause{Index: i, Paths: cp.pre}
		p.PrePaths = appendNew(p.PrePaths, cp.pre...)
		// Only the consequent runs at post time — the antecedent's verdict
		// is carried over from the pre-check, so its paths never need a
		// post-state (or top-up) fetch.
		p.Post[i] = PostClause{
			Index:    i,
			CurPaths: cp.postCur,
			PrePaths: cp.postPre,
			Touched:  cp.touched,
		}
	}
	p.Compiled = compileContract(c, p)
	return p
}
