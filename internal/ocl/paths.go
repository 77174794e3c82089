package ocl

import "strings"

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
	collectContextPaths(e, false, map[string]int{}, func(key string, inPre bool) {
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

// collectContextPaths walks the tree carrying the pre(...) nesting flag and
// the set of bound iterator variables, reporting each free navigation path
// with the context it resolves in.
func collectContextPaths(e Expr, inPre bool, bound map[string]int, report func(string, bool)) {
	switch n := e.(type) {
	case *Nav:
		if bound[n.Path[0]] == 0 {
			report(strings.Join(n.Path, "."), inPre || n.AtPre)
		}
	case *Unary:
		collectContextPaths(n.Expr, inPre, bound, report)
	case *Binary:
		collectContextPaths(n.L, inPre, bound, report)
		collectContextPaths(n.R, inPre, bound, report)
	case *CollOp:
		collectContextPaths(n.Recv, inPre, bound, report)
		for _, a := range n.Args {
			collectContextPaths(a, inPre, bound, report)
		}
	case *IterOp:
		collectContextPaths(n.Recv, inPre, bound, report)
		bound[n.Var]++
		collectContextPaths(n.Body, inPre, bound, report)
		bound[n.Var]--
	case *PreExpr:
		collectContextPaths(n.Expr, true, bound, report)
	}
}
