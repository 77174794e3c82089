package ocl

import (
	"slices"
	"strings"
)

// ContextPaths splits the navigation paths of an expression by the
// environment they resolve against: cur holds paths read from the current
// state, pre holds paths read from the pre-state snapshot (inside pre(...)
// or suffixed @pre). A path appearing in both contexts is reported in both
// lists. Each list is distinct and in first-occurrence order, mirroring
// NavPaths. The contract planner uses the split to fetch only what each
// clause's next evaluation step can actually read.
func ContextPaths(e Expr) (cur, pre []string) {
	seenCur := make(map[string]bool)
	seenPre := make(map[string]bool)
	FreeNavs(e, func(n *Nav, inPre bool) {
		key := strings.Join(n.Path, ".")
		if inPre {
			if !seenPre[key] {
				seenPre[key] = true
				pre = append(pre, key)
			}
			return
		}
		if !seenCur[key] {
			seenCur[key] = true
			cur = append(cur, key)
		}
	})
	return cur, pre
}

// FreeNavs calls visit for every free navigation node of e — one whose
// head is not a bound iterator variable — in depth-first, left-to-right
// order, with whether it reads the pre-state (inside pre(...) or suffixed
// @pre). NavPaths, ContextPaths and UnknownPaths are built on it, and the
// contract generator walks each formula once with it.
func FreeNavs(e Expr, visit func(n *Nav, inPre bool)) {
	freeNavs(e, false, nil, visit)
}

// freeNavs walks the tree carrying the pre(...) nesting flag and the
// bound iterator variables, innermost last.
func freeNavs(e Expr, inPre bool, bound []string, visit func(*Nav, bool)) {
	switch n := e.(type) {
	case *Nav:
		if !slices.Contains(bound, n.Path[0]) {
			visit(n, inPre || n.AtPre)
		}
	case *Unary:
		freeNavs(n.Expr, inPre, bound, visit)
	case *Binary:
		freeNavs(n.L, inPre, bound, visit)
		freeNavs(n.R, inPre, bound, visit)
	case *CollOp:
		freeNavs(n.Recv, inPre, bound, visit)
		for _, a := range n.Args {
			freeNavs(a, inPre, bound, visit)
		}
	case *IterOp:
		freeNavs(n.Recv, inPre, bound, visit)
		freeNavs(n.Body, inPre, append(bound, n.Var), visit)
	case *PreExpr:
		freeNavs(n.Expr, true, bound, visit)
	}
}
