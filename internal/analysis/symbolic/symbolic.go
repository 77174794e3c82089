// Package symbolic is an abstract interpreter over OCL ASTs. It reasons
// about contract clauses without an environment: which value kinds an
// expression can produce, whether its evaluation can ever raise an error,
// whether a boolean formula is decided (true, false or OclUndefined) for
// every possible state, and which comparison atoms entail each other. The
// contract planner compiles these judgements into a contract.Facts
// artifact: its folded clause forms are what the monitor's programs are
// compiled from (a statically decided disjunct compiles to its constant),
// and the analysis package reports the rest as MV700-series model
// diagnostics.
//
// Soundness contract: every exported judgement is conservative with
// respect to the concrete evaluator in package ocl. Kinds over-
// approximates the possible result kinds, NeverErrors only returns true
// when no environment can make evaluation fail, Decide only commits to a
// verdict the concrete evaluator would reach for every environment, and
// Fold only rewrites environment-independent subtrees whose concrete
// value it computed with the real evaluator. The one deliberately
// idealized component is the atom prover (see atoms.go): its entailments
// assume declared attribute types, so its conclusions feed diagnostics
// and never decide a verdict.
package symbolic

import "cloudmon/internal/ocl"

// KindSet is a bitset of ocl value kinds — the abstract value domain.
type KindSet uint8

// Kind bits.
const (
	KBool KindSet = 1 << iota
	KInt
	KString
	KColl
	KUndef
)

// AnyKind is the full domain: nothing is known about the value.
const AnyKind = KBool | KInt | KString | KColl | KUndef

// SubsetOf reports whether every kind in k is also in of.
func (k KindSet) SubsetOf(of KindSet) bool { return k&^of == 0 }

// Has reports whether k includes any bit of b.
func (k KindSet) Has(b KindSet) bool { return k&b != 0 }

// kindBit maps a concrete value kind to its bit.
func kindBit(k ocl.Kind) KindSet {
	switch k {
	case ocl.KindBool:
		return KBool
	case ocl.KindInt:
		return KInt
	case ocl.KindString:
		return KString
	case ocl.KindCollection:
		return KColl
	case ocl.KindUndefined:
		return KUndef
	}
	return AnyKind
}

// Kinds over-approximates the kinds the expression can evaluate to,
// assuming evaluation does not error. Navigation can resolve to anything,
// so most precision comes from operator result types.
func Kinds(e ocl.Expr) KindSet { return kinds(e, map[string]int{}) }

func kinds(e ocl.Expr, bound map[string]int) KindSet {
	switch n := e.(type) {
	case *ocl.Lit:
		return kindBit(n.Value.Kind)
	case *ocl.Nav:
		return AnyKind
	case *ocl.PreExpr:
		return kinds(n.Expr, bound)
	case *ocl.Unary:
		if n.Op == ocl.OpNot {
			return KBool | KUndef
		}
		return KInt | KUndef
	case *ocl.Binary:
		switch n.Op {
		case ocl.OpAnd, ocl.OpOr, ocl.OpImplies, ocl.OpXor,
			ocl.OpEq, ocl.OpNe, ocl.OpLt, ocl.OpLe, ocl.OpGt, ocl.OpGe:
			return KBool | KUndef
		default:
			return KInt | KUndef
		}
	case *ocl.CollOp:
		switch n.Name {
		case "size", "count", "sum":
			return KInt
		case "isEmpty", "notEmpty", "includes", "excludes":
			return KBool
		default: // first, or unknown
			return AnyKind
		}
	case *ocl.IterOp:
		switch n.Name {
		case "forAll", "exists":
			return KBool | KUndef
		case "select", "reject", "collect":
			return KColl
		default:
			return AnyKind
		}
	}
	return AnyKind
}

// NeverErrors reports whether evaluating the expression cannot raise an
// evaluation error in any environment. It is the gate for treating a
// clause element as safe to leave unevaluated: if every element before a
// refuted witness is error-free, skipping them cannot hide an error
// evaluating the whole clause would have surfaced. Fetch failures are a
// separate class — demand-driven evaluation already fetches less than a
// whole snapshot, so they are outside this judgement (see DESIGN.md §3.5).
//
// pre()/@pre references are conservatively erroring: pre-conditions are
// evaluated without a pre-state environment, where they raise
// ErrNoPreState.
func NeverErrors(e ocl.Expr) bool { return neverErrors(e, map[string]int{}) }

func neverErrors(e ocl.Expr, bound map[string]int) bool {
	switch n := e.(type) {
	case *ocl.Lit:
		return true
	case *ocl.Nav:
		if n.AtPre {
			return false
		}
		if bound[n.Path[0]] > 0 {
			// Navigating below an iterator variable is an eval error.
			return len(n.Path) == 1
		}
		return true
	case *ocl.PreExpr:
		return false
	case *ocl.Unary:
		if !neverErrors(n.Expr, bound) {
			return false
		}
		if n.Op == ocl.OpNot {
			return kinds(n.Expr, bound).SubsetOf(KBool | KUndef)
		}
		return kinds(n.Expr, bound).SubsetOf(KInt | KUndef)
	case *ocl.Binary:
		if !neverErrors(n.L, bound) || !neverErrors(n.R, bound) {
			return false
		}
		lk, rk := kinds(n.L, bound), kinds(n.R, bound)
		switch n.Op {
		case ocl.OpAnd, ocl.OpOr, ocl.OpImplies, ocl.OpXor:
			return lk.SubsetOf(KBool|KUndef) && rk.SubsetOf(KBool|KUndef)
		case ocl.OpEq, ocl.OpNe:
			// equalValues coerces every kind combination without error.
			return true
		case ocl.OpLt, ocl.OpLe, ocl.OpGt, ocl.OpGe:
			return pairwiseOK(lk, rk, comparablePair)
		default: // arithmetic
			return pairwiseOK(lk, rk, arithPair)
		}
	case *ocl.CollOp:
		if !neverErrors(n.Recv, bound) {
			return false
		}
		switch n.Name {
		case "size", "isEmpty", "notEmpty", "first":
			return len(n.Args) == 0
		case "includes", "excludes", "count":
			return len(n.Args) == 1 && neverErrors(n.Args[0], bound)
		default:
			// sum errors on non-integer elements; unknown names error.
			return false
		}
	case *ocl.IterOp:
		if !neverErrors(n.Recv, bound) {
			return false
		}
		bound[n.Var]++
		defer func() { bound[n.Var]-- }()
		switch n.Name {
		case "forAll", "exists", "select", "reject":
			return neverErrors(n.Body, bound) &&
				kinds(n.Body, bound).SubsetOf(KBool|KUndef)
		case "collect":
			return neverErrors(n.Body, bound)
		default:
			return false
		}
	}
	return false
}

// pairwiseOK checks ok for every combination of one kind from lk and one
// from rk — the per-pair error condition of a binary coercion.
func pairwiseOK(lk, rk KindSet, ok func(l, r KindSet) bool) bool {
	for l := KindSet(1); l <= KUndef; l <<= 1 {
		if !lk.Has(l) {
			continue
		}
		for r := KindSet(1); r <= KUndef; r <<= 1 {
			if rk.Has(r) && !ok(l, r) {
				return false
			}
		}
	}
	return true
}

// comparablePair mirrors compareValues: Undefined absorbs, two strings
// order lexically, and otherwise both sides must coerce to integers
// (Integer or Collection-size).
func comparablePair(l, r KindSet) bool {
	if l == KUndef || r == KUndef {
		return true
	}
	if l == KString && r == KString {
		return true
	}
	return l.SubsetOf(KInt|KColl) && r.SubsetOf(KInt|KColl)
}

// arithPair mirrors arithValues: Undefined absorbs, otherwise integer
// coercion on both sides.
func arithPair(l, r KindSet) bool {
	if l == KUndef || r == KUndef {
		return true
	}
	return l.SubsetOf(KInt|KColl) && r.SubsetOf(KInt|KColl)
}
