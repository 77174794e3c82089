package symbolic

import (
	"math"

	"cloudmon/internal/ocl"
)

// Atom is a normalized comparison literal extracted from a clause
// element: either subject-vs-integer-constant (an interval constraint) or
// subject-vs-subject (a constraint on the comparison result of two fixed
// expressions). Subjects are identified by their canonical rendering —
// two atoms talk about the same quantity exactly when their renderings
// match, which is the same identity the fact engine uses to match clause
// elements across disjuncts.
//
// The prover is deliberately idealized: it reads `=` as equality under
// the same integer coercion the ordering operators use. The concrete
// evaluator's membership coercion (collection = scalar) can diverge from
// that reading, so atom-level conclusions feed diagnostics only and
// never decide a verdict.
type Atom struct {
	// Subject is the canonical rendering of the constrained expression
	// (the lexically smaller side for subject-pair atoms).
	Subject string
	// Other is the second subject's rendering; empty for constant atoms.
	Other string
	// Op relates Subject to Other or to Const, after normalization.
	Op ocl.BinOp
	// Const is the integer bound of a constant atom.
	Const int
	// Pair distinguishes subject-pair atoms from constant atoms.
	Pair bool
}

// comparisonOps are the binary operators atoms are extracted from.
func isComparison(op ocl.BinOp) bool {
	switch op {
	case ocl.OpEq, ocl.OpNe, ocl.OpLt, ocl.OpLe, ocl.OpGt, ocl.OpGe:
		return true
	}
	return false
}

// mirror flips a comparison across its operands (a < b  ==  b > a).
func mirror(op ocl.BinOp) ocl.BinOp {
	switch op {
	case ocl.OpLt:
		return ocl.OpGt
	case ocl.OpLe:
		return ocl.OpGe
	case ocl.OpGt:
		return ocl.OpLt
	case ocl.OpGe:
		return ocl.OpLe
	}
	return op // = and <> are symmetric
}

// AtomOf extracts the atom of a clause element, if it has one. String and
// boolean literals never form atoms (string equality is membership-
// coercing, so `groups='admin'` and `groups='member'` can hold at once);
// fully literal comparisons are left to the constant folder.
func AtomOf(e ocl.Expr) (Atom, bool) {
	b, ok := e.(*ocl.Binary)
	if !ok || !isComparison(b.Op) {
		return Atom{}, false
	}
	lInt, lIsLit := intLitOf(b.L)
	rInt, rIsLit := intLitOf(b.R)
	_, lAnyLit := b.L.(*ocl.Lit)
	_, rAnyLit := b.R.(*ocl.Lit)
	switch {
	case rIsLit && !lAnyLit:
		return Atom{Subject: b.L.String(), Op: b.Op, Const: rInt}, true
	case lIsLit && !rAnyLit:
		return Atom{Subject: b.R.String(), Op: mirror(b.Op), Const: lInt}, true
	case !lAnyLit && !rAnyLit:
		ls, rs := b.L.String(), b.R.String()
		if ls <= rs {
			return Atom{Subject: ls, Other: rs, Op: b.Op, Pair: true}, true
		}
		return Atom{Subject: rs, Other: ls, Op: mirror(b.Op), Pair: true}, true
	}
	return Atom{}, false
}

func intLitOf(e ocl.Expr) (int, bool) {
	l, ok := e.(*ocl.Lit)
	if !ok || l.Value.Kind != ocl.KindInt {
		return 0, false
	}
	return l.Value.Int, true
}

// sameSubjects reports whether the atoms constrain the same quantities.
func (a Atom) sameSubjects(b Atom) bool {
	return a.Pair == b.Pair && a.Subject == b.Subject && a.Other == b.Other
}

// Entails reports whether a holding forces b to hold: a's satisfying set
// is contained in b's. Used for subsumption diagnostics (MV702).
func (a Atom) Entails(b Atom) bool {
	if !a.sameSubjects(b) {
		return false
	}
	if a.Pair {
		sa, sb := cmpSet(a.Op), cmpSet(b.Op)
		return sa&^sb == 0
	}
	return intervalSubset(a, b)
}

// cmpSet maps a comparison operator to the set of three-way comparison
// results {-1, 0, 1} that satisfy it, as a 3-bit mask (bit 0: less,
// bit 1: equal, bit 2: greater).
func cmpSet(op ocl.BinOp) uint8 {
	switch op {
	case ocl.OpLt:
		return 0b001
	case ocl.OpLe:
		return 0b011
	case ocl.OpEq:
		return 0b010
	case ocl.OpNe:
		return 0b101
	case ocl.OpGt:
		return 0b100
	case ocl.OpGe:
		return 0b110
	}
	return 0b111
}

// interval returns the satisfying integer interval of a constant atom;
// ok is false for <>, whose satisfying set is a punctured line.
func interval(a Atom) (lo, hi int64, ok bool) {
	c := int64(a.Const)
	switch a.Op {
	case ocl.OpEq:
		return c, c, true
	case ocl.OpLt:
		return math.MinInt64, c - 1, true
	case ocl.OpLe:
		return math.MinInt64, c, true
	case ocl.OpGt:
		return c + 1, math.MaxInt64, true
	case ocl.OpGe:
		return c, math.MaxInt64, true
	}
	return 0, 0, false
}

func intervalSubset(a, b Atom) bool {
	alo, ahi, aok := interval(a)
	blo, bhi, bok := interval(b)
	switch {
	case aok && bok:
		return blo <= alo && ahi <= bhi
	case aok: // b is <> c: a must avoid c
		return int64(b.Const) < alo || int64(b.Const) > ahi
	case bok: // a is <> c, b an interval: only the full line contains it
		return false
	default:
		return a.Const == b.Const
	}
}
