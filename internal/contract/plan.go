// Evaluation plans: the compiled, demand-driven form of a contract.
//
// Eager checking snapshots the union of every path a contract could ever
// mention — twice per request. The plan decomposes the contract back into
// the clauses Generate built it from (pre(m)'s disjuncts, post(m)'s
// per-transition implications), records exactly which state paths each
// clause reads and in which context (current vs pre-state), and orders the
// pre-clauses cheapest-first so that evaluation fetches as little of the
// cloud as a verdict actually needs.
package contract

import (
	"sort"

	"cloudmon/internal/ocl"
)

// PreClause is one disjunct of pre(m): inv(source) and guard for a single
// transition. All its paths read the current state (guards and invariants
// cannot use pre()).
type PreClause struct {
	// Index is the clause's position in Contract.Cases (model order).
	Index int
	// Paths are the distinct current-state paths the disjunct reads, in
	// first-use order.
	Paths []string
	// Added are the paths this clause needs beyond everything earlier
	// clauses in plan order already fetched — the clause's marginal fetch
	// cost when the plan runs front to back.
	Added []string
	// Cost is the static size of the disjunct (AST node count), the
	// tie-breaker for ordering clauses with equal path demands.
	Cost int
}

// PostClause is one conjunct of post(m): casePre implies
// (inv(target) and effect) for a single transition. Post-clauses stay in
// model order — the antecedent's truth is already known from the pre-check,
// so ordering buys nothing and model order keeps attribution stable.
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
	// Cost is the static size of the full implication.
	Cost int
}

// Plan is a contract compiled for demand-driven evaluation.
type Plan struct {
	// Pre holds the pre-condition disjuncts ordered cheapest-first:
	// ascending by number of paths, then static cost, then model order.
	Pre []PreClause
	// Post holds the post-condition implications in model order.
	Post []PostClause
	// PrePaths is the union of all pre-clause paths in plan order — equal
	// as a set to the paths a whole pre-condition snapshot fetches.
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
	for i, cs := range c.Cases {
		cur, _ := ocl.ContextPaths(cs.Pre)
		p.Pre = append(p.Pre, PreClause{
			Index: i,
			Paths: cur,
			Cost:  ocl.StaticCost(cs.Pre),
		})
	}
	sort.SliceStable(p.Pre, func(a, b int) bool {
		pa, pb := p.Pre[a], p.Pre[b]
		if len(pa.Paths) != len(pb.Paths) {
			return len(pa.Paths) < len(pb.Paths)
		}
		if pa.Cost != pb.Cost {
			return pa.Cost < pb.Cost
		}
		return pa.Index < pb.Index
	})
	fetched := make(map[string]bool)
	for i := range p.Pre {
		for _, path := range p.Pre[i].Paths {
			if !fetched[path] {
				fetched[path] = true
				p.Pre[i].Added = append(p.Pre[i].Added, path)
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
			Cost:     ocl.StaticCost(cs.Post),
		})
	}
	p.Compiled = compileContract(c, p)
	return p
}
