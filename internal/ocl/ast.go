package ocl

import (
	"strconv"
	"strings"
)

// Expr is an OCL expression AST node. Implementations are Lit, Nav, Unary,
// Binary, CollOp and PreExpr. Every node renders itself back to canonical
// OCL source via String().
type Expr interface {
	// String renders canonical OCL source for the node.
	String() string
	// isExpr restricts implementations to this package.
	isExpr()
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators in increasing precedence groups.
const (
	OpImplies BinOp = iota + 1
	OpOr
	OpXor
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// String renders the operator in OCL syntax.
func (op BinOp) String() string {
	switch op {
	case OpImplies:
		return "implies"
	case OpOr:
		return "or"
	case OpXor:
		return "xor"
	case OpAnd:
		return "and"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// precedence returns the binding strength of the operator (higher binds
// tighter).
func (op BinOp) precedence() int {
	switch op {
	case OpImplies:
		return 1
	case OpOr, OpXor:
		return 2
	case OpAnd:
		return 3
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 4
	case OpAdd, OpSub:
		return 5
	case OpMul, OpDiv:
		return 6
	}
	return 0
}

// Lit is a literal: Boolean, Integer or String.
type Lit struct {
	Value Value
}

func (*Lit) isExpr() {}

// String renders the literal.
func (l *Lit) String() string { return l.Value.String() }

// Nav is a navigation path over addressable resources, e.g.
// project.volumes or user.id.groups. AtPre marks the OCL `@pre` suffix,
// which evaluates the path in the pre-state.
type Nav struct {
	Path  []string
	AtPre bool
}

func (*Nav) isExpr() {}

// String renders the navigation path.
func (n *Nav) String() string { return render(n) }

// UnOp enumerates unary operators.
type UnOp int

// Unary operators.
const (
	OpNot UnOp = iota + 1
	OpNeg
)

// Unary is a unary operation (not e, -e).
type Unary struct {
	Op   UnOp
	Expr Expr
}

func (*Unary) isExpr() {}

// String renders the unary expression.
func (u *Unary) String() string { return render(u) }

// Binary is a binary operation.
type Binary struct {
	Op   BinOp
	L, R Expr
}

func (*Binary) isExpr() {}

// String renders the binary expression with minimal parentheses.
func (b *Binary) String() string { return render(b) }

// CollOp is a collection operation applied with the arrow syntax,
// e.g. project.volumes->size() or groups->includes('admin').
type CollOp struct {
	Recv Expr
	// Name is the operation name: size, isEmpty, notEmpty, includes,
	// excludes, count, sum, first.
	Name string
	Args []Expr
}

func (*CollOp) isExpr() {}

// String renders the collection operation.
func (c *CollOp) String() string { return render(c) }

// IterOp is an OCL iterator expression over a collection with a bound
// variable, e.g. user.id.groups->forAll(g | g <> 'banned') or
// project.volumes->select(v | v = volume.id)->size(). Supported iterators:
// forAll, exists, select, reject, collect.
type IterOp struct {
	Recv Expr
	// Name is the iterator name.
	Name string
	// Var is the bound iterator variable.
	Var string
	// Body is evaluated once per element with Var bound.
	Body Expr
}

func (*IterOp) isExpr() {}

// String renders the iterator expression.
func (it *IterOp) String() string { return render(it) }

// iterNames are the supported iterator operations.
var iterNames = map[string]bool{
	"forAll":  true,
	"exists":  true,
	"select":  true,
	"reject":  true,
	"collect": true,
}

// PreExpr is the paper's pre(expr) old-value operator: expr is evaluated in
// the pre-state environment (the snapshot taken before the method ran).
type PreExpr struct {
	Expr Expr
}

func (*PreExpr) isExpr() {}

// String renders the pre() wrapper.
func (p *PreExpr) String() string { return render(p) }

// render writes e's canonical source into one buffer: a contract's
// clause is a deep tree, and joining a string per node cost hundreds of
// allocations per clause.
func render(e Expr) string { return Render(e, nil, 0) }

// Render returns e's canonical source, the text e.String() returns, but
// takes the source of every subtree in known from there instead of
// rendering that subtree again. A formula assembled from parts that are
// already rendered — a contract from its cases, a case from its invariant
// and guard — so costs only the nodes that join the parts. size is the
// expected length of the text: when it suffices, the text is written into
// one buffer of that size.
func Render(e Expr, known map[Expr]string, size int) string {
	var b strings.Builder
	b.Grow(size)
	write(&b, e, known)
	return b.String()
}

// write appends e's canonical source to b, taking any subtree in known
// from there.
func write(b *strings.Builder, e Expr, known map[Expr]string) {
	if known != nil {
		if text, ok := known[e]; ok {
			b.WriteString(text)
			return
		}
	}
	switch n := e.(type) {
	case *Lit:
		b.WriteString(n.Value.String())
	case *Nav:
		for i, p := range n.Path {
			if i > 0 {
				b.WriteByte('.')
			}
			b.WriteString(p)
		}
		if n.AtPre {
			b.WriteString("@pre")
		}
	case *Unary:
		if n.Op == OpNot {
			b.WriteString("not ")
		} else {
			b.WriteByte('-')
		}
		writeOperand(b, n.Expr, 7, known)
	case *Binary:
		p := n.Op.precedence()
		// Left-associative: right operand needs parens at equal precedence.
		writeOperand(b, n.L, p, known)
		b.WriteByte(' ')
		b.WriteString(n.Op.String())
		b.WriteByte(' ')
		writeOperand(b, n.R, p+1, known)
	case *CollOp:
		writeOperand(b, n.Recv, 7, known)
		b.WriteString("->")
		b.WriteString(n.Name)
		b.WriteByte('(')
		for i, a := range n.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			write(b, a, known)
		}
		b.WriteByte(')')
	case *IterOp:
		writeOperand(b, n.Recv, 7, known)
		b.WriteString("->")
		b.WriteString(n.Name)
		b.WriteByte('(')
		b.WriteString(n.Var)
		b.WriteString(" | ")
		write(b, n.Body, known)
		b.WriteByte(')')
	case *PreExpr:
		b.WriteString("pre(")
		write(b, n.Expr, known)
		b.WriteByte(')')
	}
}

// writeOperand writes e, wrapped in parentheses when e binds looser than
// the context precedence.
func writeOperand(b *strings.Builder, e Expr, ctx int, known map[Expr]string) {
	if bin, ok := e.(*Binary); ok && bin.Op.precedence() < ctx {
		b.WriteByte('(')
		write(b, bin, known)
		b.WriteByte(')')
		return
	}
	write(b, e, known)
}

// Walk visits every node of the expression tree in depth-first pre-order.
// If fn returns false the node's children are skipped.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch n := e.(type) {
	case *Unary:
		Walk(n.Expr, fn)
	case *Binary:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case *CollOp:
		Walk(n.Recv, fn)
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case *IterOp:
		Walk(n.Recv, fn)
		Walk(n.Body, fn)
	case *PreExpr:
		Walk(n.Expr, fn)
	}
}

// NavPaths returns the distinct navigation paths referenced by the
// expression, as dotted strings, in first-occurrence order. Iterator
// variables are lexically scoped and excluded. The monitor uses this to
// decide which resource-state values to snapshot before forwarding a
// request (the paper: "we do not need to save the copy of the whole
// resource(s) but only the values that constitute the guards and invariants").
func NavPaths(e Expr) []string {
	var out []string
	seen := make(map[string]bool)
	FreeNavs(e, func(n *Nav, _ bool) {
		if key := strings.Join(n.Path, "."); !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	})
	return out
}

// UsesPre reports whether the expression contains a pre(...) or @pre
// old-value reference. Pre-conditions must not use old values; the contract
// generator validates this.
func UsesPre(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		switch nn := n.(type) {
		case *PreExpr:
			found = true
			return false
		case *Nav:
			if nn.AtPre {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// And returns the conjunction of the expressions, or the true literal for
// an empty list. Single-element lists return the element unchanged.
func And(exprs ...Expr) Expr { return fold(OpAnd, exprs) }

// Or returns the disjunction of the expressions, or the false literal for
// an empty list.
func Or(exprs ...Expr) Expr {
	if len(exprs) == 0 {
		return &Lit{Value: BoolVal(false)}
	}
	return fold(OpOr, exprs)
}

// Implies returns l implies r.
func Implies(l, r Expr) Expr { return &Binary{Op: OpImplies, L: l, R: r} }

// True returns the true literal.
func True() Expr { return &Lit{Value: BoolVal(true)} }

func fold(op BinOp, exprs []Expr) Expr {
	if len(exprs) == 0 {
		return True()
	}
	acc := exprs[0]
	for _, e := range exprs[1:] {
		acc = &Binary{Op: op, L: acc, R: e}
	}
	return acc
}

// IntLit returns an integer literal expression.
func IntLit(i int) Expr { return &Lit{Value: IntVal(i)} }

// StrLit returns a string literal expression.
func StrLit(s string) Expr { return &Lit{Value: StringVal(s)} }

// NavOf returns a navigation expression over the dotted path.
func NavOf(dotted string) Expr { return &Nav{Path: strings.Split(dotted, ".")} }

// SizeOf returns `path->size()` for the dotted navigation path.
func SizeOf(dotted string) Expr { return &CollOp{Recv: NavOf(dotted), Name: "size"} }

// unquoteInt parses an integer literal token.
func unquoteInt(text string) (int, bool) {
	n, err := strconv.Atoi(text)
	return n, err == nil
}
