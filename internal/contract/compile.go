// The contract compiler: each Plan clause's OCL AST is translated once,
// at plan-compile time, into a chain of Go closures over the Frame's
// flat slot model (frame.go). State paths resolve to slot indexes fixed
// at compile time and iterator variables to registers indexed by lexical
// depth. Each clause compiles as it stands in the contract, and the
// invariant, guard or effect a contract's cases share compiles once.
//
// Soundness is not argued node-by-node here: every coercion rule is a
// call into the ocl evaluation kernel (ocl/kernel.go), the same
// functions the tree-walking evaluator runs, and the equivalence of the
// composition is enforced by the monitor's differential suites (against
// a whole-snapshot oracle built on the tree walk), the FuzzCompiledEval
// harness and the seeded compiler mutants below. There is one compiler:
// the mutants are seeded into the same closures production runs.
package contract

import (
	"fmt"
	"sync"

	"cloudmon/internal/ocl"
)

// evalFn is a compiled expression: it evaluates over a Frame and either
// produces a value, signals a *Demand for an unfilled slot, or fails
// with the same error the tree-walking evaluator would produce.
type evalFn func(fr *Frame) (ocl.Value, error)

// Program is one compiled clause.
type Program struct {
	fn evalFn
}

// Run evaluates the program over the frame.
func (p *Program) Run(fr *Frame) (ocl.Value, error) { return p.fn(fr) }

// Compiled is a contract's closure-chain evaluator set: one program per
// pre-condition disjunct and post-condition consequent, sharing a single
// state-path slot table and a Frame pool. The table holds every path the
// plan can fetch, not only the ones the programs demand, so a frame can
// record everything a request read.
type Compiled struct {
	paths []string
	idx   map[string]int
	// curDemand/preDemand are the preallocated per-slot demand errors —
	// signalling a demand on the OK path allocates nothing.
	curDemand []*Demand
	preDemand []*Demand
	// pre and post are indexed like Contract.Cases.
	pre     []*Program
	post    []*Program
	numRegs int
	pool    sync.Pool
}

// Paths returns the slot table: every state path the plan can fetch.
func (cp *Compiled) Paths() []string { return cp.paths }

// Cases returns the number of compiled clause pairs.
func (cp *Compiled) Cases() int { return len(cp.pre) }

// PreProgram returns the compiled pre-condition disjunct for case i.
func (cp *Compiled) PreProgram(i int) *Program { return cp.pre[i] }

// PostProgram returns the compiled post-condition consequent for case i.
func (cp *Compiled) PostProgram(i int) *Program { return cp.post[i] }

// Registers returns the iterator-register bank size the programs need —
// the deepest lexical iterator nesting across all compiled clauses.
func (cp *Compiled) Registers() int { return cp.numRegs }

// NewFrame returns a reset Frame from the pool. Frames must go back via
// Release, exactly once; a warmed pool makes evaluation allocation-free.
func (cp *Compiled) NewFrame() *Frame {
	fr := cp.pool.Get().(*Frame)
	fr.Reset()
	fr.live = true
	return fr
}

// Release returns a frame to the pool. The caller must not retain
// values aliasing the frame's arena past this point. Releasing a frame
// twice panics: the pool would hand it to two requests at once.
func (cp *Compiled) Release(fr *Frame) {
	if !fr.live {
		panic("contract: frame released twice")
	}
	fr.live = false
	cp.pool.Put(fr)
}

// compileContract builds the contract's compiled evaluator set: one
// program per case's pre-condition disjunct and post-condition
// consequent. It then gives every path the plan names a slot too: the
// pre clauses' paths and the post clauses' pre-state paths (together the
// monitor's one pre-phase read) and effect frames, so the frame holds
// whatever the monitor fetches even where a program does not read it (a
// hand-built contract's effect need not be part of its post-condition).
func compileContract(c *Contract, p *Plan) *Compiled {
	co := newCompiler("")
	cp := co.cp
	cp.pre = make([]*Program, len(c.Cases))
	cp.post = make([]*Program, len(c.Cases))
	for i, cs := range c.Cases {
		cp.pre[i] = co.clause(cs.Pre)
		cp.post[i] = co.clause(cs.Post)
	}
	for _, pc := range p.Pre {
		co.ensurePaths(pc.Paths)
	}
	for _, pc := range p.Post {
		co.ensurePaths(pc.CurPaths)
		co.ensurePaths(pc.PrePaths)
		co.ensurePaths(pc.Touched)
	}
	co.seal()
	return cp
}

// CompiledExpr is a single compiled expression with its own slot table —
// the standalone face of the compiler for fuzzing, benchmarks and the
// mutation campaign. The contract pipeline uses Compiled instead, which
// shares one table across all clauses.
type CompiledExpr struct {
	cp   *Compiled
	prog *Program
}

// CompileExpr compiles one OCL expression. Compilation is total: inputs
// the evaluator would reject at runtime compile to programs producing
// the identical runtime error.
func CompileExpr(e ocl.Expr) *CompiledExpr { return CompileExprWithMutant(e, "") }

// CompileExprWithMutant compiles with one seeded semantic fault enabled
// (see CompilerMutants) — the mutation campaign's entry point. An empty
// mutant compiles faithfully.
func CompileExprWithMutant(e ocl.Expr, mutant string) *CompiledExpr {
	co := newCompiler(mutant)
	prog := co.program(e)
	co.seal()
	return &CompiledExpr{cp: co.cp, prog: prog}
}

// Paths returns the expression's slot table.
func (ce *CompiledExpr) Paths() []string { return ce.cp.paths }

// Eval runs the compiled expression against map environments, mirroring
// ocl.Eval(e, ocl.Context{Cur: cur, Pre: pre}): every slot is filled up
// front (missing keys resolve to Undefined, as ocl.MapEnv does), so no
// demand can occur. A pre-state is filled first and turned around with
// BeginPost, as the monitor does. Collection results are detached from
// the frame's arena before the frame returns to the pool.
func (ce *CompiledExpr) Eval(cur, pre ocl.MapEnv) (ocl.Value, error) {
	fr := ce.cp.NewFrame()
	defer ce.cp.Release(fr)
	fill := func(env ocl.MapEnv) {
		for i, path := range ce.cp.paths {
			v, ok := env[path]
			fr.SetCurSlot(i, v, ok)
		}
	}
	if pre != nil {
		fill(pre)
		fr.BeginPost()
	}
	fill(cur)
	v, err := ce.prog.Run(fr)
	if err != nil {
		return ocl.Value{}, err
	}
	return detachValue(v), nil
}

// detachValue deep-copies collection storage that may alias a frame's
// arena, so results survive the frame's reuse.
func detachValue(v ocl.Value) ocl.Value {
	if v.Kind != ocl.KindCollection || len(v.Elems) == 0 {
		return v
	}
	elems := make([]ocl.Value, len(v.Elems))
	for i, e := range v.Elems {
		elems[i] = detachValue(e)
	}
	v.Elems = elems
	return v
}

// CompilerMutants lists the seeded semantic faults the mutation campaign
// compiles in one at a time (cmd/mutantlab -compiler). Each breaks one
// documented evaluator rule; an adequate differential corpus must kill
// every one of them against the tree-walking reference.
func CompilerMutants() []string {
	return []string{
		"eq-membership-drop",   // `=` loses the collection-membership and count coercions
		"and-undef-false",      // Kleene `and` collapses Undefined to false
		"implies-undef-strict", // U implies true no longer rescues to true
		"cmp-le-lt",            // <= compiles as <
		"forall-empty-false",   // forAll over the empty collection is false
		"exists-undef-false",   // exists ignores Undefined bodies
		"scalar-size-zero",     // scalars lose their singleton coercion in size()
		"absent-as-false",      // an absent state path reads as false, not Undefined
		"div-zero-zero",        // division by zero yields 0, not Undefined
		"xor-as-or",            // xor compiles as or
		"not-undef-true",       // not Undefined yields true
		"pre-as-cur",           // @pre/pre() reads the current state
	}
}

// compiler translates one AST at a time into closures over a shared
// Compiled artifact.
type compiler struct {
	cp *Compiled
	// scope holds the iterator variables in lexical nesting order; a
	// variable's register index is its depth.
	scope   []string
	maxRegs int
	mutant  string
	// shared holds each case-clause operand compiled so far (see clause).
	shared map[ocl.Expr]evalFn
}

func newCompiler(mutant string) *compiler {
	return &compiler{
		cp:     &Compiled{idx: make(map[string]int)},
		mutant: mutant,
		shared: make(map[ocl.Expr]evalFn),
	}
}

// seal finalizes the artifact once every program is compiled: the slot
// table is frozen and the frame pool learns its dimensions.
func (co *compiler) seal() {
	cp := co.cp
	cp.numRegs = co.maxRegs
	cp.pool.New = func() any {
		return &Frame{
			c:     cp,
			cur:   make([]slot, len(cp.paths)),
			pre:   make([]slot, len(cp.paths)),
			regs:  make([]ocl.Value, cp.numRegs),
			arena: make([]ocl.Value, 0, 16),
		}
	}
}

// program compiles one clause.
func (co *compiler) program(e ocl.Expr) *Program {
	return &Program{fn: co.compile(e, false)}
}

// ensurePaths interns each path into the slot table.
func (co *compiler) ensurePaths(paths []string) {
	for _, p := range paths {
		co.ensurePath(p)
	}
}

// ensurePath interns a state path into the slot table.
func (co *compiler) ensurePath(key string) int {
	cp := co.cp
	if i, ok := cp.idx[key]; ok {
		return i
	}
	i := len(cp.paths)
	cp.idx[key] = i
	cp.paths = append(cp.paths, key)
	cp.curDemand = append(cp.curDemand, &Demand{Path: key, Index: i})
	cp.preDemand = append(cp.preDemand, &Demand{Path: key, Index: i, Pre: true})
	return i
}

// slot interns a navigation path into the slot table, joining its
// segments into a new string only for a path the table lacks.
func (co *compiler) slot(path []string) int {
	var buf [64]byte
	key := buf[:0]
	for i, seg := range path {
		if i > 0 {
			key = append(key, '.')
		}
		key = append(key, seg...)
	}
	if i, ok := co.cp.idx[string(key)]; ok {
		return i
	}
	return co.ensurePath(string(key))
}

// lookupVar resolves an iterator variable to its register, innermost
// binding first — the lexical mirror of the evaluator's scope stack.
func (co *compiler) lookupVar(name string) (int, bool) {
	for i := len(co.scope) - 1; i >= 0; i-- {
		if co.scope[i] == name {
			return i, true
		}
	}
	return 0, false
}

// clause compiles a case's pre-condition disjunct or consequent. Generate
// builds each as the conjunction of an invariant with a guard or an
// effect, and the contract's cases share those operands' ASTs: each
// operand compiles once per contract, in the current-state bank and
// outside every iterator, and every clause that conjoins it runs the same
// closure.
func (co *compiler) clause(e ocl.Expr) *Program {
	if n, ok := e.(*ocl.Binary); ok && n.Op == ocl.OpAnd {
		return &Program{fn: co.logic(n, co.operand(n.L), co.operand(n.R))}
	}
	return &Program{fn: co.operand(e)}
}

// operand compiles a case-clause operand the first time the contract
// meets it and reuses that closure after.
func (co *compiler) operand(e ocl.Expr) evalFn {
	if f, ok := co.shared[e]; ok {
		return f
	}
	f := co.compile(e, false)
	co.shared[e] = f
	return f
}

// compile translates a node. inPre is true inside pre(...) — navigation
// then reads the pre-state bank, exactly as the evaluator's inPre flag
// redirects navigation to ctx.Pre.
func (co *compiler) compile(e ocl.Expr, inPre bool) evalFn {
	switch n := e.(type) {
	case *ocl.Lit:
		v := n.Value
		return func(*Frame) (ocl.Value, error) { return v, nil }
	case *ocl.Nav:
		return co.compileNav(n, inPre)
	case *ocl.PreExpr:
		body := co.compile(n.Expr, true)
		return func(fr *Frame) (ocl.Value, error) {
			if !fr.hasPre {
				return ocl.Value{}, ocl.ErrNoPreState
			}
			return body(fr)
		}
	case *ocl.Unary:
		return co.compileUnary(n, inPre)
	case *ocl.Binary:
		return co.compileBinary(n, inPre)
	case *ocl.CollOp:
		return co.compileColl(n, inPre)
	case *ocl.IterOp:
		return co.compileIter(n, inPre)
	default:
		err := &ocl.EvalError{Expr: e, Message: "unknown expression node"}
		return func(*Frame) (ocl.Value, error) { return ocl.Value{}, err }
	}
}

func (co *compiler) compileNav(n *ocl.Nav, inPre bool) evalFn {
	if reg, ok := co.lookupVar(n.Path[0]); ok {
		// Iterator variables shadow navigation heads; both failure modes
		// are lexically decidable, so they compile to constant errors.
		if len(n.Path) > 1 {
			err := &ocl.EvalError{Expr: n, Message: fmt.Sprintf(
				"cannot navigate below iterator variable %q", n.Path[0])}
			return func(*Frame) (ocl.Value, error) { return ocl.Value{}, err }
		}
		if n.AtPre {
			err := &ocl.EvalError{Expr: n, Message: "@pre on an iterator variable"}
			return func(*Frame) (ocl.Value, error) { return ocl.Value{}, err }
		}
		return func(fr *Frame) (ocl.Value, error) { return fr.regs[reg], nil }
	}
	i := co.slot(n.Path)
	usePre := inPre || n.AtPre
	if co.mutant == "pre-as-cur" && usePre {
		usePre = false
	}
	if usePre {
		return func(fr *Frame) (ocl.Value, error) { return fr.loadPre(i) }
	}
	if co.mutant == "absent-as-false" {
		return func(fr *Frame) (ocl.Value, error) {
			v, err := fr.loadCur(i)
			if err == nil && v.IsUndefined() {
				return ocl.BoolVal(false), nil
			}
			return v, err
		}
	}
	return func(fr *Frame) (ocl.Value, error) { return fr.loadCur(i) }
}

func (co *compiler) compileUnary(n *ocl.Unary, inPre bool) evalFn {
	ef := co.compile(n.Expr, inPre)
	switch n.Op {
	case ocl.OpNot:
		notUndefTrue := co.mutant == "not-undef-true"
		return func(fr *Frame) (ocl.Value, error) {
			v, err := ef(fr)
			if err != nil {
				return ocl.Value{}, err
			}
			if v.IsUndefined() {
				if notUndefTrue {
					return ocl.BoolVal(true), nil
				}
				return ocl.Undefined(), nil
			}
			if v.Kind != ocl.KindBool {
				return ocl.Value{}, &ocl.EvalError{Expr: n, Message: "not applied to " + v.Kind.String()}
			}
			return ocl.BoolVal(!v.Bool), nil
		}
	case ocl.OpNeg:
		return func(fr *Frame) (ocl.Value, error) {
			v, err := ef(fr)
			if err != nil {
				return ocl.Value{}, err
			}
			if v.IsUndefined() {
				return ocl.Undefined(), nil
			}
			if v.Kind != ocl.KindInt {
				return ocl.Value{}, &ocl.EvalError{Expr: n, Message: "negation applied to " + v.Kind.String()}
			}
			return ocl.IntVal(-v.Int), nil
		}
	}
	err := &ocl.EvalError{Expr: n, Message: "unknown unary operator"}
	return func(fr *Frame) (ocl.Value, error) {
		if _, e := ef(fr); e != nil {
			return ocl.Value{}, e
		}
		return ocl.Value{}, err
	}
}

func (co *compiler) compileBinary(n *ocl.Binary, inPre bool) evalFn {
	switch n.Op {
	case ocl.OpAnd, ocl.OpOr, ocl.OpImplies, ocl.OpXor:
		return co.logic(n, co.compile(n.L, inPre), co.compile(n.R, inPre))
	}
	lf := co.compile(n.L, inPre)
	rf := co.compile(n.R, inPre)
	op := n.Op
	if co.mutant == "cmp-le-lt" && op == ocl.OpLe {
		op = ocl.OpLt
	}
	switch op {
	case ocl.OpEq:
		if co.mutant == "eq-membership-drop" {
			return func(fr *Frame) (ocl.Value, error) {
				l, r, err := evalPair(fr, lf, rf)
				if err != nil {
					return ocl.Value{}, err
				}
				if l.IsUndefined() && r.IsUndefined() {
					return ocl.BoolVal(true), nil
				}
				if l.IsUndefined() || r.IsUndefined() {
					return ocl.Undefined(), nil
				}
				return ocl.BoolVal(l.Equal(r)), nil
			}
		}
		// Peephole: slot-vs-constant equality is the contract corpus's
		// commonest atom (role and status literals); comparing against a
		// captured constant skips one dynamic call and Value copy per
		// evaluation. Literals never error or demand, so evaluation order
		// is preserved either side.
		if cv, isConst := litValue(n.R); isConst {
			return func(fr *Frame) (ocl.Value, error) {
				l, err := lf(fr)
				if err != nil {
					return ocl.Value{}, err
				}
				return ocl.KernelEqual(l, cv), nil
			}
		}
		if cv, isConst := litValue(n.L); isConst {
			return func(fr *Frame) (ocl.Value, error) {
				r, err := rf(fr)
				if err != nil {
					return ocl.Value{}, err
				}
				return ocl.KernelEqual(cv, r), nil
			}
		}
		return func(fr *Frame) (ocl.Value, error) {
			l, r, err := evalPair(fr, lf, rf)
			if err != nil {
				return ocl.Value{}, err
			}
			return ocl.KernelEqual(l, r), nil
		}
	case ocl.OpNe:
		if cv, isConst := litValue(n.R); isConst {
			return func(fr *Frame) (ocl.Value, error) {
				l, err := lf(fr)
				if err != nil {
					return ocl.Value{}, err
				}
				eq := ocl.KernelEqual(l, cv)
				if eq.IsUndefined() {
					return eq, nil
				}
				return ocl.BoolVal(!eq.Bool), nil
			}
		}
		return func(fr *Frame) (ocl.Value, error) {
			l, r, err := evalPair(fr, lf, rf)
			if err != nil {
				return ocl.Value{}, err
			}
			eq := ocl.KernelEqual(l, r)
			if eq.IsUndefined() {
				return eq, nil
			}
			return ocl.BoolVal(!eq.Bool), nil
		}
	case ocl.OpLt, ocl.OpLe, ocl.OpGt, ocl.OpGe:
		cmpOp := op
		if cv, isConst := litValue(n.R); isConst {
			return func(fr *Frame) (ocl.Value, error) {
				l, err := lf(fr)
				if err != nil {
					return ocl.Value{}, err
				}
				v, ok := ocl.KernelCompare(cmpOp, l, cv)
				if !ok {
					return ocl.Value{}, &ocl.EvalError{Expr: n, Message: fmt.Sprintf(
						"cannot order %s and %s", l.Kind, cv.Kind)}
				}
				return v, nil
			}
		}
		if cv, isConst := litValue(n.L); isConst {
			return func(fr *Frame) (ocl.Value, error) {
				r, err := rf(fr)
				if err != nil {
					return ocl.Value{}, err
				}
				v, ok := ocl.KernelCompare(cmpOp, cv, r)
				if !ok {
					return ocl.Value{}, &ocl.EvalError{Expr: n, Message: fmt.Sprintf(
						"cannot order %s and %s", cv.Kind, r.Kind)}
				}
				return v, nil
			}
		}
		return func(fr *Frame) (ocl.Value, error) {
			l, r, err := evalPair(fr, lf, rf)
			if err != nil {
				return ocl.Value{}, err
			}
			v, ok := ocl.KernelCompare(cmpOp, l, r)
			if !ok {
				return ocl.Value{}, &ocl.EvalError{Expr: n, Message: fmt.Sprintf(
					"cannot order %s and %s", l.Kind, r.Kind)}
			}
			return v, nil
		}
	case ocl.OpAdd, ocl.OpSub, ocl.OpMul, ocl.OpDiv:
		arithOp := op
		divZeroZero := co.mutant == "div-zero-zero" && op == ocl.OpDiv
		return func(fr *Frame) (ocl.Value, error) {
			l, r, err := evalPair(fr, lf, rf)
			if err != nil {
				return ocl.Value{}, err
			}
			v, ok := ocl.KernelArith(arithOp, l, r)
			if !ok {
				return ocl.Value{}, &ocl.EvalError{Expr: n, Message: fmt.Sprintf(
					"arithmetic on %s and %s", l.Kind, r.Kind)}
			}
			if divZeroZero && v.IsUndefined() && !l.IsUndefined() && !r.IsUndefined() {
				return ocl.IntVal(0), nil
			}
			return v, nil
		}
	}
	err := &ocl.EvalError{Expr: n, Message: "unknown binary operator"}
	return func(fr *Frame) (ocl.Value, error) {
		if _, _, e := evalPair(fr, lf, rf); e != nil {
			return ocl.Value{}, e
		}
		return ocl.Value{}, err
	}
}

// litValue reports whether e is a literal, returning its value — the
// guard for the constant-operand peepholes above.
func litValue(e ocl.Expr) (ocl.Value, bool) {
	if l, ok := e.(*ocl.Lit); ok {
		return l.Value, true
	}
	return ocl.Value{}, false
}

// evalPair evaluates both operands of a non-short-circuiting binary
// operator, left first, exactly as the evaluator does.
func evalPair(fr *Frame, lf, rf evalFn) (ocl.Value, ocl.Value, error) {
	l, err := lf(fr)
	if err != nil {
		return ocl.Value{}, ocl.Value{}, err
	}
	r, err := rf(fr)
	if err != nil {
		return ocl.Value{}, ocl.Value{}, err
	}
	return l, r, nil
}

// logic compiles the short-circuiting three-valued connectives over
// their compiled operands, including the left-first evaluation order the
// demand loop depends on.
func (co *compiler) logic(n *ocl.Binary, lf, rf evalFn) evalFn {
	op := n.Op
	if co.mutant == "xor-as-or" && op == ocl.OpXor {
		op = ocl.OpOr
	}
	andUndefFalse := co.mutant == "and-undef-false" && op == ocl.OpAnd
	impliesStrict := co.mutant == "implies-undef-strict" && op == ocl.OpImplies
	// boolOperand evaluates one operand to its three-valued truth; the
	// closures below are specialized per connective so evaluation pays no
	// runtime operator dispatch.
	boolOperand := func(fr *Frame, f evalFn) (b, def bool, err error) {
		v, err := f(fr)
		if err != nil {
			return false, false, err
		}
		b, def, ok := ocl.KernelBool(v)
		if !ok {
			return false, false, &ocl.EvalError{Expr: n, Message: "boolean operator applied to " + v.Kind.String()}
		}
		return b, def, nil
	}
	switch op {
	case ocl.OpAnd:
		return func(fr *Frame) (ocl.Value, error) {
			lb, lDef, err := boolOperand(fr, lf)
			if err != nil {
				return ocl.Value{}, err
			}
			if lDef && !lb {
				return ocl.BoolVal(false), nil
			}
			rb, rDef, err := boolOperand(fr, rf)
			if err != nil {
				return ocl.Value{}, err
			}
			if rDef && !rb {
				return ocl.BoolVal(false), nil
			}
			if !lDef || !rDef {
				if andUndefFalse {
					return ocl.BoolVal(false), nil
				}
				return ocl.Undefined(), nil
			}
			return ocl.BoolVal(lb && rb), nil
		}
	case ocl.OpOr:
		return func(fr *Frame) (ocl.Value, error) {
			lb, lDef, err := boolOperand(fr, lf)
			if err != nil {
				return ocl.Value{}, err
			}
			if lDef && lb {
				return ocl.BoolVal(true), nil
			}
			rb, rDef, err := boolOperand(fr, rf)
			if err != nil {
				return ocl.Value{}, err
			}
			if rDef && rb {
				return ocl.BoolVal(true), nil
			}
			if !lDef || !rDef {
				return ocl.Undefined(), nil
			}
			return ocl.BoolVal(lb || rb), nil
		}
	case ocl.OpImplies:
		return func(fr *Frame) (ocl.Value, error) {
			lb, lDef, err := boolOperand(fr, lf)
			if err != nil {
				return ocl.Value{}, err
			}
			if lDef && !lb {
				return ocl.BoolVal(true), nil
			}
			rb, rDef, err := boolOperand(fr, rf)
			if err != nil {
				return ocl.Value{}, err
			}
			if rDef && rb {
				if impliesStrict && !lDef {
					return ocl.Undefined(), nil
				}
				return ocl.BoolVal(true), nil
			}
			if !lDef || !rDef {
				return ocl.Undefined(), nil
			}
			return ocl.BoolVal(!lb || rb), nil
		}
	case ocl.OpXor:
		return func(fr *Frame) (ocl.Value, error) {
			lb, lDef, err := boolOperand(fr, lf)
			if err != nil {
				return ocl.Value{}, err
			}
			rb, rDef, err := boolOperand(fr, rf)
			if err != nil {
				return ocl.Value{}, err
			}
			if !lDef || !rDef {
				return ocl.Undefined(), nil
			}
			return ocl.BoolVal(lb != rb), nil
		}
	}
	err := &ocl.EvalError{Expr: n, Message: "unknown logical operator"}
	return func(fr *Frame) (ocl.Value, error) {
		if _, _, e := boolOperand(fr, lf); e != nil {
			return ocl.Value{}, e
		}
		if _, _, e := boolOperand(fr, rf); e != nil {
			return ocl.Value{}, e
		}
		return ocl.Value{}, err
	}
}

func (co *compiler) compileColl(n *ocl.CollOp, inPre bool) evalFn {
	recvF := co.compile(n.Recv, inPre)
	argFs := make([]evalFn, len(n.Args))
	for i, a := range n.Args {
		argFs[i] = co.compile(a, inPre)
	}
	// The evaluator checks arity after the receiver evaluates, so a
	// mismatch compiles to "evaluate the receiver, then fail" — demand
	// and error order stay identical.
	arity := func(k int) evalFn {
		if len(n.Args) == k {
			return nil
		}
		err := &ocl.EvalError{Expr: n, Message: fmt.Sprintf(
			"%s expects %d argument(s), got %d", n.Name, k, len(n.Args))}
		return func(fr *Frame) (ocl.Value, error) {
			if _, e := recvF(fr); e != nil {
				return ocl.Value{}, e
			}
			return ocl.Value{}, err
		}
	}
	switch n.Name {
	case "size":
		if bad := arity(0); bad != nil {
			return bad
		}
		scalarSizeZero := co.mutant == "scalar-size-zero"
		return func(fr *Frame) (ocl.Value, error) {
			recv, err := recvF(fr)
			if err != nil {
				return ocl.Value{}, err
			}
			if scalarSizeZero && recv.Kind != ocl.KindCollection {
				return ocl.IntVal(0), nil
			}
			return ocl.IntVal(recv.Size()), nil
		}
	case "isEmpty", "notEmpty":
		if bad := arity(0); bad != nil {
			return bad
		}
		wantEmpty := n.Name == "isEmpty"
		return func(fr *Frame) (ocl.Value, error) {
			recv, err := recvF(fr)
			if err != nil {
				return ocl.Value{}, err
			}
			return ocl.BoolVal((recv.Size() == 0) == wantEmpty), nil
		}
	case "includes", "excludes", "count":
		if bad := arity(1); bad != nil {
			return bad
		}
		name := n.Name
		argF := argFs[0]
		return func(fr *Frame) (ocl.Value, error) {
			recv, err := recvF(fr)
			if err != nil {
				return ocl.Value{}, err
			}
			arg, err := argF(fr)
			if err != nil {
				return ocl.Value{}, err
			}
			count := 0
			for k, sz := 0, recv.Size(); k < sz; k++ {
				if recv.ElemAt(k).Equal(arg) {
					count++
				}
			}
			switch name {
			case "includes":
				return ocl.BoolVal(count > 0), nil
			case "excludes":
				return ocl.BoolVal(count == 0), nil
			}
			return ocl.IntVal(count), nil
		}
	case "sum":
		if bad := arity(0); bad != nil {
			return bad
		}
		return func(fr *Frame) (ocl.Value, error) {
			recv, err := recvF(fr)
			if err != nil {
				return ocl.Value{}, err
			}
			total := 0
			for k, sz := 0, recv.Size(); k < sz; k++ {
				i, ok := ocl.KernelInt(recv.ElemAt(k))
				if !ok {
					return ocl.Value{}, &ocl.EvalError{Expr: n, Message: "sum over non-integer element"}
				}
				total += i
			}
			return ocl.IntVal(total), nil
		}
	case "first":
		if bad := arity(0); bad != nil {
			return bad
		}
		return func(fr *Frame) (ocl.Value, error) {
			recv, err := recvF(fr)
			if err != nil {
				return ocl.Value{}, err
			}
			if recv.Size() == 0 {
				return ocl.Undefined(), nil
			}
			return recv.ElemAt(0), nil
		}
	}
	err := &ocl.EvalError{Expr: n, Message: "unknown collection operation " + n.Name}
	return func(fr *Frame) (ocl.Value, error) {
		if _, e := recvF(fr); e != nil {
			return ocl.Value{}, e
		}
		return ocl.Value{}, err
	}
}

func (co *compiler) compileIter(n *ocl.IterOp, inPre bool) evalFn {
	recvF := co.compile(n.Recv, inPre)
	depth := len(co.scope)
	co.scope = append(co.scope, n.Var)
	if len(co.scope) > co.maxRegs {
		co.maxRegs = len(co.scope)
	}
	bodyF := co.compile(n.Body, inPre)
	co.scope = co.scope[:len(co.scope)-1]
	switch n.Name {
	case "forAll", "exists":
		want := n.Name == "exists" // short-circuit value
		emptyFalse := co.mutant == "forall-empty-false" && n.Name == "forAll"
		undefFalse := co.mutant == "exists-undef-false" && n.Name == "exists"
		return func(fr *Frame) (ocl.Value, error) {
			recv, err := recvF(fr)
			if err != nil {
				return ocl.Value{}, err
			}
			sawUndefined := false
			sz := recv.Size()
			for k := 0; k < sz; k++ {
				fr.regs[depth] = recv.ElemAt(k)
				v, err := bodyF(fr)
				if err != nil {
					return ocl.Value{}, err
				}
				b, def, ok := ocl.KernelBool(v)
				if !ok {
					return ocl.Value{}, &ocl.EvalError{Expr: n, Message: "boolean operator applied to " + v.Kind.String()}
				}
				if !def {
					sawUndefined = true
					continue
				}
				if b == want {
					return ocl.BoolVal(want), nil
				}
			}
			if emptyFalse && sz == 0 {
				return ocl.BoolVal(false), nil
			}
			if sawUndefined {
				if undefFalse {
					return ocl.BoolVal(false), nil
				}
				return ocl.Undefined(), nil
			}
			return ocl.BoolVal(!want), nil
		}
	case "select", "reject":
		keepOn := n.Name == "select"
		if buildsCollections(n.Body) {
			// A collection-building body appends its own scratch to the
			// arena between this loop's appends, so a contiguous arena
			// region is impossible: fall back to an allocated result.
			// Such nesting does not occur in generated contracts.
			return func(fr *Frame) (ocl.Value, error) {
				recv, err := recvF(fr)
				if err != nil {
					return ocl.Value{}, err
				}
				sz := recv.Size()
				out := make([]ocl.Value, 0, sz)
				for k := 0; k < sz; k++ {
					elem := recv.ElemAt(k)
					fr.regs[depth] = elem
					v, err := bodyF(fr)
					if err != nil {
						return ocl.Value{}, err
					}
					b, def, ok := ocl.KernelBool(v)
					if !ok {
						return ocl.Value{}, &ocl.EvalError{Expr: n, Message: "boolean operator applied to " + v.Kind.String()}
					}
					if def && b == keepOn {
						out = append(out, elem)
					}
				}
				return ocl.Value{Kind: ocl.KindCollection, Elems: out}, nil
			}
		}
		// Builder-free body: it never touches the arena, so kept elements
		// land contiguously and the result is a capacity-capped slice of
		// arena — zero allocations in the steady state.
		return func(fr *Frame) (ocl.Value, error) {
			recv, err := recvF(fr)
			if err != nil {
				return ocl.Value{}, err
			}
			start := len(fr.arena)
			sz := recv.Size()
			for k := 0; k < sz; k++ {
				elem := recv.ElemAt(k)
				fr.regs[depth] = elem
				v, err := bodyF(fr)
				if err != nil {
					return ocl.Value{}, err
				}
				b, def, ok := ocl.KernelBool(v)
				if !ok {
					return ocl.Value{}, &ocl.EvalError{Expr: n, Message: "boolean operator applied to " + v.Kind.String()}
				}
				if def && b == keepOn {
					fr.arena = append(fr.arena, elem)
				}
			}
			end := len(fr.arena)
			return ocl.Value{Kind: ocl.KindCollection, Elems: fr.arena[start:end:end]}, nil
		}
	case "collect":
		if buildsCollections(n.Body) {
			return func(fr *Frame) (ocl.Value, error) {
				recv, err := recvF(fr)
				if err != nil {
					return ocl.Value{}, err
				}
				sz := recv.Size()
				out := make([]ocl.Value, 0, sz)
				for k := 0; k < sz; k++ {
					fr.regs[depth] = recv.ElemAt(k)
					v, err := bodyF(fr)
					if err != nil {
						return ocl.Value{}, err
					}
					out = append(out, v)
				}
				return ocl.Value{Kind: ocl.KindCollection, Elems: out}, nil
			}
		}
		return func(fr *Frame) (ocl.Value, error) {
			recv, err := recvF(fr)
			if err != nil {
				return ocl.Value{}, err
			}
			start := len(fr.arena)
			sz := recv.Size()
			for k := 0; k < sz; k++ {
				fr.regs[depth] = recv.ElemAt(k)
				v, err := bodyF(fr)
				if err != nil {
					return ocl.Value{}, err
				}
				fr.arena = append(fr.arena, v)
			}
			end := len(fr.arena)
			return ocl.Value{Kind: ocl.KindCollection, Elems: fr.arena[start:end:end]}, nil
		}
	}
	err := &ocl.EvalError{Expr: n, Message: "unknown iterator operation " + n.Name}
	return func(fr *Frame) (ocl.Value, error) {
		if _, e := recvF(fr); e != nil {
			return ocl.Value{}, e
		}
		return ocl.Value{}, err
	}
}

// buildsCollections reports whether evaluating the expression can append
// result storage to the frame arena (select/reject/collect anywhere in
// the tree) — the test for the iterator fast path above.
func buildsCollections(e ocl.Expr) bool {
	found := false
	ocl.Walk(e, func(n ocl.Expr) bool {
		if it, ok := n.(*ocl.IterOp); ok {
			switch it.Name {
			case "select", "reject", "collect":
				found = true
				return false
			}
		}
		return true
	})
	return found
}
