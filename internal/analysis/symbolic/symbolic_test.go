package symbolic

import (
	"testing"

	"cloudmon/internal/ocl"
)

func parse(t *testing.T, src string) ocl.Expr {
	t.Helper()
	e, err := ocl.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

func lit(v ocl.Value) ocl.Expr { return &ocl.Lit{Value: v} }

// TestUndefinedPropagationTable pins the three-valued domain against the
// concrete evaluator: for every connective and every combination of
// {true, false, OclUndefined} operands, Decide on the literal formula
// must return exactly the value ocl.Eval computes.
func TestUndefinedPropagationTable(t *testing.T) {
	vals := []ocl.Value{ocl.BoolVal(true), ocl.BoolVal(false), ocl.Undefined()}
	ops := []ocl.BinOp{ocl.OpAnd, ocl.OpOr, ocl.OpImplies, ocl.OpXor}
	toTri := func(v ocl.Value) Tri {
		switch {
		case v.Kind == ocl.KindUndefined:
			return Undef
		case v.Bool:
			return True
		default:
			return False
		}
	}
	for _, op := range ops {
		for _, l := range vals {
			for _, r := range vals {
				e := &ocl.Binary{Op: op, L: lit(l), R: lit(r)}
				want, err := ocl.Eval(e, ocl.Context{})
				if err != nil {
					t.Fatalf("%s: concrete eval: %v", e, err)
				}
				if got := Decide(e); got != toTri(want) {
					t.Errorf("%s: Decide=%v, concrete=%v", e, got, want)
				}
			}
		}
	}
	// not over the three values.
	for _, v := range vals {
		e := &ocl.Unary{Op: ocl.OpNot, Expr: lit(v)}
		want, err := ocl.Eval(e, ocl.Context{})
		if err != nil {
			t.Fatalf("%s: concrete eval: %v", e, err)
		}
		if got := Decide(e); got != toTri(want) {
			t.Errorf("%s: Decide=%v, concrete=%v", e, got, want)
		}
	}
}

func TestDecide(t *testing.T) {
	cases := []struct {
		src  string
		want Tri
	}{
		{"true", True},
		{"false", False},
		{"1 = 1", Unknown},            // not folded: Decide alone is structural
		{"true or thing.x > 0", True}, // short-circuit hides the unknown right
		{"false and thing.x > 0", False},
		{"thing.x > 0 or true", Unknown}, // left may error on a non-orderable kind
		{"thing.x = 1 and false", False}, // = never errors, definite false wins
		{"thing.x = 1", Unknown},
		{"not false", True},
	}
	for _, c := range cases {
		if got := Decide(parse(t, c.src)); got != c.want {
			t.Errorf("Decide(%q) = %v, want %v", c.src, got, c.want)
		}
	}
	// After folding, literal arithmetic decides too.
	if got := Decide(Fold(parse(t, "1 + 1 = 2"))); got != True {
		t.Errorf("Decide(Fold(1+1=2)) = %v, want true", got)
	}
	if got := Decide(Fold(parse(t, "thing.x = 1 and 2 > 3"))); got != False {
		t.Errorf("Decide(Fold(x=1 and 2>3)) = %v, want false", got)
	}
}

func TestNeverErrors(t *testing.T) {
	yes := []string{
		"true",
		"thing.x = 1",
		"thing.x <> 'busy'",
		"things->size() = 0",
		"things->size() >= 1",
		"things->includes('a')",
		"things->isEmpty()",
		"user.id.groups = 'admin' or user.id.groups = 'member'",
		"things->forAll(v | v <> 'banned')",
		"things->select(v | v = 'x')->size() = 1",
		"things->size() > 1 and things->size() < 5",
	}
	no := []string{
		"thing.x > 0 and true",        // > can hit a non-orderable kind
		"things < quota.max",          // ordering two untyped navigations
		"thing.x + 1 = 2",             // arithmetic on arbitrary kinds
		"not thing.x",                 // not over a possibly non-boolean value
		"things->sum() = 3",           // sum errors on non-integer elements
		"pre(things->size()) = 0",     // no pre-state in the pre phase
		"things@pre->size() = 0",      // @pre likewise
		"things->forAll(v | v.x = 1)", // navigation below an iterator variable
	}
	for _, src := range yes {
		if !NeverErrors(parse(t, src)) {
			t.Errorf("NeverErrors(%q) = false, want true", src)
		}
	}
	for _, src := range no {
		if NeverErrors(parse(t, src)) {
			t.Errorf("NeverErrors(%q) = true, want false", src)
		}
	}
	// A bare navigation never errors by itself (it is the operators around
	// it that reject kinds).
	if !NeverErrors(parse(t, "thing.x")) {
		t.Errorf("NeverErrors(thing.x) = false, want true")
	}
}

// TestFoldSoundness cross-checks folding against the concrete evaluator
// over a corpus of formulas and environments: the folded expression must
// produce the same value, and error exactly when the original errors.
func TestFoldSoundness(t *testing.T) {
	exprs := []string{
		"1 + 2 = 3",
		"2 > 3",
		"true and thing.x = 1",
		"thing.x = 1 and 2 > 3",
		"(1 + 1 = 2) or thing.x > 0",
		"thing.x > 10 - 3",
		"things->size() = 4 / 2",
		"not (1 = 2)",
		"false and thing.x + 1 = 2", // folding must not bypass the left guard
		"thing.x = 1 and 1 = 0 and thing.y = 2",
		"things->select(v | v = 'a')->size() >= 0 - 1",
	}
	envs := []ocl.MapEnv{
		{},
		{"thing.x": ocl.IntVal(1), "thing.y": ocl.IntVal(2), "things": ocl.StringsVal("a", "b")},
		{"thing.x": ocl.StringVal("zz"), "things": ocl.IntVal(7)},
		{"thing.x": ocl.BoolVal(true), "thing.y": ocl.Undefined()},
	}
	for _, src := range exprs {
		orig := parse(t, src)
		folded := Fold(orig)
		for _, env := range envs {
			ctx := ocl.Context{Cur: env}
			v1, err1 := ocl.Eval(orig, ctx)
			v2, err2 := ocl.Eval(folded, ctx)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%q folded to %q: error divergence (%v vs %v) in env %v",
					src, folded, err1, err2, env)
			}
			if err1 == nil && !v1.Equal(v2) {
				t.Fatalf("%q folded to %q: value divergence (%v vs %v) in env %v",
					src, folded, v1, v2, env)
			}
		}
	}
}

func TestFoldRewrites(t *testing.T) {
	cases := []struct{ src, want string }{
		{"1 + 2 = 3", "true"},
		{"2 > 3", "false"},
		{"thing.x > 10 - 3", "thing.x > 7"},
		{"true and thing.x = 1", "true and thing.x = 1"}, // no unsound unit law
		{"not (1 = 2)", "true"},
	}
	for _, c := range cases {
		if got := Fold(parse(t, c.src)).String(); got != c.want {
			t.Errorf("Fold(%q) = %q, want %q", c.src, got, c.want)
		}
	}
	// Erroring closed subtrees are preserved verbatim.
	src := "1 + 'a' = 2"
	if got := Fold(parse(t, src)).String(); got != src {
		t.Errorf("Fold(%q) = %q, want unchanged", src, got)
	}
}

func TestElementsOrder(t *testing.T) {
	e := parse(t, "a.x = 1 and b.y = 2 and c.z = 3")
	els := Elements(e)
	want := []string{"a.x = 1", "b.y = 2", "c.z = 3"}
	if len(els) != len(want) {
		t.Fatalf("got %d elements, want %d", len(els), len(want))
	}
	for i, w := range want {
		if els[i].String() != w {
			t.Errorf("element %d = %q, want %q", i, els[i], w)
		}
	}
	if got := Elements(parse(t, "a.x = 1 or b.y = 2")); len(got) != 1 {
		t.Errorf("disjunction should be a single element, got %d", len(got))
	}
}

func TestAtoms(t *testing.T) {
	atom := func(src string) Atom {
		a, ok := AtomOf(parse(t, src))
		if !ok {
			t.Fatalf("AtomOf(%q): no atom", src)
		}
		return a
	}
	entails := [][2]string{
		{"things->size() = 1", "things->size() >= 1"},
		{"things->size() > 1", "things->size() >= 1"},
		{"things->size() = 2", "things->size() <> 0"},
		{"things < quota.max", "things <= quota.max"},
	}
	for _, p := range entails {
		a, b := atom(p[0]), atom(p[1])
		if !a.Entails(b) {
			t.Errorf("expected %q to entail %q", p[0], p[1])
		}
		if b.Entails(a) {
			t.Errorf("did not expect %q to entail %q", p[1], p[0])
		}
	}
	// String comparisons never form atoms: `=` is membership-coercing.
	if _, ok := AtomOf(parse(t, "user.id.groups = 'admin'")); ok {
		t.Errorf("string equality must not form an atom")
	}
	if _, ok := AtomOf(parse(t, "1 = 2")); ok {
		t.Errorf("fully literal comparison must not form an atom")
	}
}

func TestKinds(t *testing.T) {
	cases := []struct {
		src  string
		want KindSet
	}{
		{"things->size()", KInt},
		{"things->isEmpty()", KBool},
		{"thing.x = 1", KBool | KUndef},
		{"thing.x + 1", KInt | KUndef},
		{"not thing.x", KBool | KUndef},
		{"things->select(v | v = 'a')", KColl},
		{"things->forAll(v | v = 'a')", KBool | KUndef},
		{"thing.x", AnyKind},
	}
	for _, c := range cases {
		if got := Kinds(parse(t, c.src)); got != c.want {
			t.Errorf("Kinds(%q) = %b, want %b", c.src, got, c.want)
		}
	}
}
