// The symbolic pass (MV7xx) surfaces what the compile-time fact engine
// (internal/contract facts, built on internal/analysis/symbolic) proved
// about the generated contracts: disjuncts whose pre-condition decides to
// a constant for every state, disjuncts subsumed by a sibling, state
// paths no clause can ever demand, and — as a hard error — a facts
// artifact that fails its own machine check. These findings are modeling
// smells: the monitor compiles a statically decided disjunct to its
// constant and never notices the rest; modelvet makes them visible at
// design time.
package analysis

import (
	"fmt"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
)

func symbolicPass() Pass {
	return Pass{
		Name: "symbolic",
		Doc:  "compile-time clause facts: statically decided or subsumed disjuncts, dead state paths",
		Codes: []string{
			"MV700", // disjunct statically false or undefined: the case can never fire
			"MV701", // disjunct statically true: the case fires for every state
			"MV702", // disjunct subsumed by a sibling: redundant in pre(m)
			"MV703", // state path never demanded once static clauses are constants
			"MV704", // facts artifact failed its machine check
		},
		Run: runSymbolic,
	}
}

func runSymbolic(ctx *Context) []Diagnostic {
	if ctx.contracts == nil {
		return nil
	}
	var ds []Diagnostic
	for _, c := range ctx.contracts.Contracts {
		f := c.Plan().Facts
		if f == nil {
			continue
		}
		if err := f.Check(c); err != nil {
			ds = append(ds, Diagnostic{
				Code:     "MV704",
				Severity: Error,
				Pass:     "symbolic",
				Loc:      contractLoc(c, ""),
				Message:  fmt.Sprintf("facts artifact failed its machine check: %v", err),
			})
			continue
		}
		for i := range f.Pre {
			pf := &f.Pre[i]
			tr := c.Cases[i].Transition
			if s := pf.Static; s != nil {
				if s.Kind == ocl.KindBool && s.Bool {
					ds = append(ds, Diagnostic{
						Code:     "MV701",
						Severity: Info,
						Pass:     "symbolic",
						Loc:      transitionLoc(tr, "pre-condition"),
						Message: fmt.Sprintf(
							"disjunct fires for every state: inv(%s) and guard %s", tr.From, pf.Reason),
					})
				} else {
					ds = append(ds, Diagnostic{
						Code:     "MV700",
						Severity: Warning,
						Pass:     "symbolic",
						Loc:      transitionLoc(tr, "pre-condition"),
						Message: fmt.Sprintf(
							"disjunct can never fire: inv(%s) and guard %s", tr.From, pf.Reason),
					})
				}
			}
			for _, j := range pf.SubsumedBy {
				sib := c.Cases[j].Transition
				ds = append(ds, Diagnostic{
					Code:     "MV702",
					Severity: Warning,
					Pass:     "symbolic",
					Loc:      transitionLoc(tr, "pre-condition"),
					Message: fmt.Sprintf(
						"redundant disjunct: it entails the %s->%s case, so it never decides pre(%s) alone",
						sib.From, sib.To, c.Trigger),
				})
			}
		}
		for _, d := range f.DeadPaths {
			ds = append(ds, Diagnostic{
				Code:     "MV703",
				Severity: Info,
				Pass:     "symbolic",
				Loc:      contractLoc(c, "state paths"),
				Message: fmt.Sprintf(
					"state path %q is never demanded: %s", d.Path, d.Reason),
			})
		}
	}
	return ds
}

// contractLoc locates a generated contract (a trigger's clause set).
func contractLoc(c *contract.Contract, detail string) Location {
	return Location{
		Diagram: "behavioral",
		Element: fmt.Sprintf("contract %s", c.Trigger),
		Detail:  detail,
	}
}
