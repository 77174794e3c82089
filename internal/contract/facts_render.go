package contract

import (
	"fmt"
	"strings"
)

// RenderFacts renders every contract's compile-time facts as text — the
// output behind modelvet's -facts flag. Each line is one proven fact with
// its reason trace; a contract the symbolic pass proved nothing about
// says so explicitly.
func RenderFacts(set *Set) string {
	var b strings.Builder
	for _, c := range set.Contracts {
		renderContractFacts(&b, c)
	}
	return b.String()
}

func renderContractFacts(b *strings.Builder, c *Contract) {
	f := c.Plan().Facts
	fmt.Fprintf(b, "%s %s\n", c.Trigger, c.URI)
	if f == nil {
		fmt.Fprintf(b, "  (no facts)\n")
		return
	}
	proved := false
	for i := range f.Pre {
		pf := &f.Pre[i]
		if pf.Rewritten {
			fmt.Fprintf(b, "  pre[%d] %s folds to: %s\n", i, caseLabel(c, i), pf.Folded)
			proved = true
		}
		if pf.Static != nil {
			fmt.Fprintf(b, "  pre[%d] %s static %s — %s\n", i, caseLabel(c, i), pf.Static, pf.Reason)
			proved = true
		}
		for _, j := range pf.SubsumedBy {
			fmt.Fprintf(b, "  pre[%d] %s entails pre[%d] %s: redundant in the disjunction\n",
				i, caseLabel(c, i), j, caseLabel(c, j))
			proved = true
		}
	}
	for i := range f.Post {
		if f.Post[i].Vacuous() {
			fmt.Fprintf(b, "  post[%d] %s vacuous — %s\n", i, caseLabel(c, i), f.Post[i].Reason)
			proved = true
		}
	}
	for _, d := range f.DeadPaths {
		fmt.Fprintf(b, "  dead path %s — %s\n", d.Path, d.Reason)
		proved = true
	}
	if !proved {
		fmt.Fprintf(b, "  (nothing proven beyond per-state evaluation)\n")
	}
}

// caseLabel names a case by its transition when the contract carries one.
func caseLabel(c *Contract, i int) string {
	if i < len(c.Cases) {
		if t := c.Cases[i].Transition; t != nil {
			return t.From + "->" + t.To
		}
	}
	return "case"
}
