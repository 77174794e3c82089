package ocl

import (
	"errors"
	"strings"
	"testing"
)

func env() MapEnv {
	return MapEnv{
		"project.id":        StringVal("4"),
		"project.volumes":   CollectionVal(StringVal("v1"), StringVal("v2")),
		"quota_sets.volume": IntVal(10),
		"volume.status":     StringVal("available"),
		"user.id.groups":    StringsVal("admin", "member"),
	}
}

func evalSrc(t *testing.T, src string, ctx Context) Value {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	v, err := Eval(e, ctx)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("project.volumes->size() >= 1 and x <> 'in-use'")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokenKind, 0, len(toks))
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []TokenKind{
		TokIdent, TokDot, TokIdent, TokArrow, TokIdent, TokLParen, TokRParen,
		TokGe, TokInt, TokAnd, TokIdent, TokNe, TokString, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

func TestLexImpliesSpellings(t *testing.T) {
	for _, src := range []string{"a => b", "a ==> b", "a implies b"} {
		toks, err := Lex(src)
		if err != nil {
			t.Fatalf("Lex(%q): %v", src, err)
		}
		if toks[1].Kind != TokImplies {
			t.Errorf("Lex(%q)[1] = %v, want implies", src, toks[1].Kind)
		}
	}
}

func TestLexPreKeywordOnlyBeforeParen(t *testing.T) {
	toks, err := Lex("pre(x) and pre.y")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokPre {
		t.Errorf("pre( should lex as TokPre, got %v", toks[0].Kind)
	}
	// "pre.y": pre must be a plain identifier.
	var after []Token
	for i, tok := range toks {
		if tok.Kind == TokAnd {
			after = toks[i+1:]
			break
		}
	}
	if len(after) == 0 || after[0].Kind != TokIdent || after[0].Text != "pre" {
		t.Errorf("bare pre should lex as identifier, got %+v", after)
	}
}

func TestLexErrors(t *testing.T) {
	// "\xc2x" regresses an invalid-UTF-8 lead byte: widened to a rune it
	// reads as a letter, and the lexer once looped forever emitting empty
	// identifiers without advancing.
	for _, src := range []string{"'unterminated", "a ? b", "\xc2x", "a->\xc2xists(g | g)", "\xff"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q): want error", src)
		} else {
			var serr *SyntaxError
			if !errors.As(err, &serr) {
				t.Errorf("Lex(%q): error is not *SyntaxError: %v", src, err)
			}
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	tests := []struct {
		src, want string
	}{
		{"a and b or c", "a and b or c"},
		{"a or b and c", "a or b and c"},
		{"(a or b) and c", "(a or b) and c"},
		{"a = 1 and b = 2", "a = 1 and b = 2"},
		{"not a and b", "not a and b"},
		{"not (a and b)", "not (a and b)"},
		{"a implies b implies c", "a implies b implies c"},
		{"1 + 2 * 3 = 7", "1 + 2 * 3 = 7"},
		{"(1 + 2) * 3 = 9", "(1 + 2) * 3 = 9"},
		{"x->size() = 1", "x->size() = 1"},
		{"pre(x->size()) < x->size()", "pre(x->size()) < x->size()"},
		{"x@pre = 3", "x@pre = 3"},
		{"a.b.c->includes('q')", "a.b.c->includes('q')"},
		{"a->includes('x', 'y')", "a->includes('x', 'y')"},
		{"xs->forAll(g | g <> 'banned') and ys->select(v | v > 1)->size() = 0", "xs->forAll(g | g <> 'banned') and ys->select(v | v > 1)->size() = 0"},
		{"-(a + b) < a - (b - c)", "-(a + b) < a - (b - c)"},
	}
	for _, tt := range tests {
		e, err := Parse(tt.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.src, err)
			continue
		}
		if got := e.String(); got != tt.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestParseEmptyIsTrue(t *testing.T) {
	for _, src := range []string{"", "   ", "\t\n"} {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		v, err := Eval(e, Context{Cur: MapEnv{}})
		if err != nil || v.Kind != KindBool || !v.Bool {
			t.Errorf("Parse(%q) should evaluate true, got %v err=%v", src, v, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"a and",
		"->size()",
		"a->size",
		"(a",
		"a b",
		"pre()",
		"1@pre",
		"a@post",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
}

func TestRoundTripParsePrint(t *testing.T) {
	srcs := []string{
		"project.id->size() = 1 and project.volumes->size() = 0",
		"project.volumes < quota_sets.volume and volume.status <> 'in-use'",
		"user.id.groups = 'admin' or user.id.groups = 'member'",
		"project.volumes->size() < pre(project.volumes->size())",
		"not (a and b) implies c xor d",
	}
	for _, src := range srcs {
		e1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		printed := e1.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", src, printed, err)
		}
		if e2.String() != printed {
			t.Errorf("print/parse not stable: %q -> %q -> %q", src, printed, e2.String())
		}
	}
}

func TestEvalPaperInvariants(t *testing.T) {
	ctx := Context{Cur: env()}
	tests := []struct {
		src  string
		want bool
	}{
		// Paper Section IV.B invariants.
		{"project.id->size()=1 and project.volumes->size()=0", false},
		{"project.id->size()=1 and project.volumes->size()>=1", true},
		// Quota guard: collection coerces to its size for ordering.
		{"project.volumes < quota_sets.volume", true},
		{"project.volumes >= quota_sets.volume", false},
		// Status and group membership (collection = scalar is membership).
		{"volume.status <> 'in-use'", true},
		{"user.id.groups='admin'", true},
		{"user.id.groups='business_analyst'", false},
		{"user.id.groups->includes('member')", true},
		{"user.id.groups->excludes('member')", false},
		// Boolean algebra over it all.
		{"project.id->size()=1 and project.volumes->size()>=1 and " +
			"project.volumes < quota_sets.volume and volume.status <> 'in-use' " +
			"and user.id.groups='admin'", true},
	}
	for _, tt := range tests {
		e, err := Parse(tt.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tt.src, err)
		}
		got, err := EvalBool(e, ctx)
		if err != nil {
			t.Fatalf("EvalBool(%q): %v", tt.src, err)
		}
		if got != tt.want {
			t.Errorf("EvalBool(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalUndefinedSemantics(t *testing.T) {
	ctx := Context{Cur: MapEnv{"present": IntVal(1)}}
	tests := []struct {
		src  string
		want Value
	}{
		// Missing resource: size 0, isEmpty true.
		{"missing->size()", IntVal(0)},
		{"missing->isEmpty()", BoolVal(true)},
		{"missing->notEmpty()", BoolVal(false)},
		// Comparisons with undefined are undefined.
		{"missing = 1", Undefined()},
		{"missing < 1", Undefined()},
		// Kleene logic: short-circuiting sides dominate.
		{"false and missing = 1", BoolVal(false)},
		{"true or missing = 1", BoolVal(true)},
		{"missing = 1 or true", BoolVal(true)},
		{"missing = 1 and false", BoolVal(false)},
		{"missing = 1 implies present = 1", BoolVal(true)},
		{"false implies missing = 1", BoolVal(true)},
		// Undefined propagates when undetermined.
		{"missing = 1 and true", Undefined()},
		{"not (missing = 1)", Undefined()},
		// Division by zero is undefined.
		{"present / 0", Undefined()},
	}
	for _, tt := range tests {
		got := evalSrc(t, tt.src, ctx)
		if !got.Equal(tt.want) {
			t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

// TestUndefinedPropagationTable pins the evaluator's three-valued
// (Kleene) logic over {true, false, OclUndefined}: every operand pair of
// and, or, implies and xor, and not of each value. Each expected value is
// written out, so a change to any cell fails here.
func TestUndefinedPropagationTable(t *testing.T) {
	vals := map[byte]Value{'T': BoolVal(true), 'F': BoolVal(false), 'U': Undefined()}
	// Each row lists the results for (l, r) in the order TT TF TU FT FF
	// FU UT UF UU.
	table := []struct {
		op   BinOp
		want string
	}{
		{OpAnd, "TFUFFFUFU"},
		{OpOr, "TTTTFUTUU"},
		{OpImplies, "TFUTTTTUU"},
		{OpXor, "FTUTFUUUU"},
	}
	operands := "TFU"
	for _, row := range table {
		k := 0
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				e := &Binary{Op: row.op, L: &Lit{Value: vals[operands[i]]}, R: &Lit{Value: vals[operands[j]]}}
				got, err := Eval(e, Context{})
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				if want := vals[row.want[k]]; !got.Equal(want) {
					t.Errorf("%s = %v, want %v", e, got, want)
				}
				k++
			}
		}
	}
	for i, want := range "FTU" {
		e := &Unary{Op: OpNot, Expr: &Lit{Value: vals[operands[i]]}}
		got, err := Eval(e, Context{})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if !got.Equal(vals[byte(want)]) {
			t.Errorf("%s = %v, want %v", e, got, vals[byte(want)])
		}
	}
}

func TestEvalBoolTreatsUndefinedAsFalse(t *testing.T) {
	e := MustParse("missing = 1")
	ok, err := EvalBool(e, Context{Cur: MapEnv{}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("undefined formula should produce false verdict")
	}
}

func TestEvalPreState(t *testing.T) {
	pre := MapEnv{"project.volumes": CollectionVal(StringVal("a"), StringVal("b"))}
	cur := MapEnv{"project.volumes": CollectionVal(StringVal("a"))}
	ctx := Context{Cur: cur, Pre: pre}

	tests := []struct {
		src  string
		want bool
	}{
		{"project.volumes->size() < pre(project.volumes->size())", true},
		{"project.volumes->size() = pre(project.volumes->size()) - 1", true},
		{"project.volumes@pre->size() = 2", true},
		{"pre(project.volumes)->size() = 2", true},
	}
	for _, tt := range tests {
		e, err := Parse(tt.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tt.src, err)
		}
		got, err := EvalBool(e, ctx)
		if err != nil {
			t.Fatalf("EvalBool(%q): %v", tt.src, err)
		}
		if got != tt.want {
			t.Errorf("EvalBool(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalPreWithoutPreState(t *testing.T) {
	e := MustParse("pre(x) = 1")
	_, err := Eval(e, Context{Cur: MapEnv{}})
	if !errors.Is(err, ErrNoPreState) {
		t.Errorf("want ErrNoPreState, got %v", err)
	}
}

func TestEvalTypeErrors(t *testing.T) {
	ctx := Context{Cur: MapEnv{
		"s": StringVal("x"),
		"b": BoolVal(true),
	}}
	for _, src := range []string{
		"s + 1",
		"not s",
		"b < 1",
		"s->sum()",
		"x->frobnicate()",
		"x->size(1)",
	} {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := Eval(e, ctx); err == nil {
			t.Errorf("Eval(%q): want error", src)
		}
	}
}

func TestCollectionOps(t *testing.T) {
	ctx := Context{Cur: MapEnv{
		"nums":  CollectionVal(IntVal(1), IntVal(2), IntVal(2)),
		"one":   IntVal(7),
		"empty": CollectionVal(),
	}}
	tests := []struct {
		src  string
		want Value
	}{
		{"nums->size()", IntVal(3)},
		{"nums->sum()", IntVal(5)},
		{"nums->count(2)", IntVal(2)},
		{"nums->includes(1)", BoolVal(true)},
		{"nums->excludes(9)", BoolVal(true)},
		{"nums->first()", IntVal(1)},
		{"empty->first()", Undefined()},
		// Scalars coerce to singleton collections.
		{"one->size()", IntVal(1)},
		{"one->sum()", IntVal(7)},
		{"one->includes(7)", BoolVal(true)},
	}
	for _, tt := range tests {
		got := evalSrc(t, tt.src, ctx)
		if !got.Equal(tt.want) {
			t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestNavPaths(t *testing.T) {
	e := MustParse("project.id->size()=1 and project.volumes < quota_sets.volume " +
		"and pre(project.volumes->size()) > 0 and project.id = '4'")
	got := NavPaths(e)
	want := []string{"project.id", "project.volumes", "quota_sets.volume"}
	if len(got) != len(want) {
		t.Fatalf("NavPaths = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NavPaths = %v, want %v", got, want)
		}
	}
}

func TestUsesPre(t *testing.T) {
	if UsesPre(MustParse("a = 1 and b = 2")) {
		t.Error("no pre in plain formula")
	}
	if !UsesPre(MustParse("a < pre(a)")) {
		t.Error("pre() not detected")
	}
	if !UsesPre(MustParse("a@pre = 1")) {
		t.Error("@pre not detected")
	}
}

func TestCheckVocabulary(t *testing.T) {
	known := func(path []string) bool {
		return strings.Join(path, ".") != "bogus.path"
	}
	if err := CheckVocabulary(MustParse("a.b = 1"), known); err != nil {
		t.Errorf("known path rejected: %v", err)
	}
	if err := CheckVocabulary(MustParse("a = 1 and bogus.path = 2"), known); err == nil {
		t.Error("unknown path accepted")
	}
}

func TestCheckNoPre(t *testing.T) {
	if err := CheckNoPre(MustParse("a = 1")); err != nil {
		t.Errorf("plain formula rejected: %v", err)
	}
	if err := CheckNoPre(MustParse("a = pre(a)")); err == nil {
		t.Error("pre() accepted in pre-condition position")
	}
}

func TestComplexity(t *testing.T) {
	if got := Complexity(MustParse("a = 1")); got != 3 {
		t.Errorf("Complexity(a = 1) = %d, want 3", got)
	}
	if got := Complexity(MustParse("a")); got != 1 {
		t.Errorf("Complexity(a) = %d, want 1", got)
	}
}

func TestBuilders(t *testing.T) {
	e := And(
		&Binary{Op: OpEq, L: SizeOf("project.id"), R: IntLit(1)},
		&Binary{Op: OpEq, L: SizeOf("project.volumes"), R: IntLit(0)},
	)
	want := "project.id->size() = 1 and project.volumes->size() = 0"
	if e.String() != want {
		t.Errorf("builder output = %q, want %q", e.String(), want)
	}
	if Or().String() != "false" {
		t.Errorf("empty Or should be false literal")
	}
	if And().String() != "true" {
		t.Errorf("empty And should be true literal")
	}
	if got := Implies(StrLit("a"), IntLit(1)).String(); got != "'a' implies 1" {
		t.Errorf("Implies = %q", got)
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{BoolVal(true), "true"},
		{IntVal(42), "42"},
		{StringVal("in-use"), "'in-use'"},
		{Undefined(), "OclUndefined"},
		{CollectionVal(IntVal(1), StringVal("a")), "Set{1, 'a'}"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("Value.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestValueSize(t *testing.T) {
	if Undefined().Size() != 0 {
		t.Error("undefined size should be 0")
	}
	if IntVal(3).Size() != 1 {
		t.Error("scalar size should be 1")
	}
	if CollectionVal(IntVal(1), IntVal(2)).Size() != 2 {
		t.Error("collection size should be 2")
	}
}

func TestMapEnvKeys(t *testing.T) {
	m := MapEnv{"b": IntVal(1), "a": IntVal(2)}
	keys := m.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("Keys = %v, want [a b]", keys)
	}
}
