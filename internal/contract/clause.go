package contract

import (
	"slices"

	"cloudmon/internal/ocl"
)

// A clause is a formula of a contract as Generate derives it: its AST and
// the state paths it reads. Generate parses each distinct invariant, guard
// and effect text once, walks the AST once for its paths and vocabulary
// and renders it once. A case's clauses and a contract's combined
// conditions are built from those parts: their paths are merged from the
// parts' paths and their texts rendered around the parts' texts.
type clause struct {
	expr ocl.Expr
	paths
}

// paths are the distinct state paths a formula reads, each list in
// first-use order: cur in the current state, pre in the pre-state (inside
// pre(...) or suffixed @pre) and nav in either — what ocl.ContextPaths
// and ocl.NavPaths report. Clauses share these slices, so they must not
// be modified.
type paths struct {
	cur, pre, nav []string
}

// and returns the paths of the conjunction of formulas reading p and q.
func (p paths) and(q paths) paths {
	return paths{cur: union(p.cur, q.cur), pre: union(p.pre, q.pre), nav: union(p.nav, q.nav)}
}

// union returns a followed by the paths of b that a lacks. It returns a
// or b itself when the other adds nothing, so the result is shared.
func union(a, b []string) []string {
	if len(a) == 0 {
		return b
	}
	return appendNew(slices.Clip(a), b...)
}

// appendNew appends to dst each of paths that dst lacks.
func appendNew(dst []string, paths ...string) []string {
	for _, p := range paths {
		if !slices.Contains(dst, p) {
			dst = append(dst, p)
		}
	}
	return dst
}

// generator holds what one Generate call derives from the model's
// formula texts. Nothing in it outlives the call: every assembly does
// all of its own work.
type generator struct {
	vocab ocl.VocabularyFunc
	// formulas holds each distinct source text's parsed formula.
	formulas map[string]*formula
	// texts holds the rendering of every formula and clause built so far,
	// so ocl.Render writes a part's text instead of rendering it again.
	texts map[ocl.Expr]string
	// interned holds one string per distinct dotted state path.
	interned map[string]string
	// buf is scratch for path keys and digest inputs.
	buf []byte
}

// formula is a parsed source text: its clause, whether it reads the
// pre-state anywhere, and whether it names a path outside the vocabulary.
type formula struct {
	clause
	usesPre, unknown bool
}

func newGenerator(vocab ocl.VocabularyFunc) *generator {
	return &generator{
		vocab:    vocab,
		formulas: make(map[string]*formula),
		texts:    make(map[ocl.Expr]string),
		interned: make(map[string]string),
	}
}

// formula returns the clause of a source text, parsing, walking and
// rendering the text the first time it is met. Guards and invariants
// (noPre) must not read the pre-state, and no formula may name a path
// outside the vocabulary; the errors are ocl's own.
func (g *generator) formula(src string, noPre bool) (*clause, error) {
	f, ok := g.formulas[src]
	if !ok {
		e, err := ocl.Parse(src)
		if err != nil {
			return nil, err
		}
		f = &formula{clause: clause{expr: e}, usesPre: ocl.UsesPre(e)}
		f.paths, f.unknown = g.walk(e)
		g.texts[e] = e.String()
		g.formulas[src] = f
	}
	if noPre && f.usesPre {
		return nil, ocl.CheckNoPre(f.expr)
	}
	if f.unknown {
		return nil, ocl.CheckVocabulary(f.expr, g.vocab)
	}
	return &f.clause, nil
}

// walk visits e's free navigation paths once: the paths it reads, and
// whether one of them is outside the vocabulary.
func (g *generator) walk(e ocl.Expr) (p paths, unknown bool) {
	ocl.FreeNavs(e, func(n *ocl.Nav, inPre bool) {
		path := g.intern(n.Path)
		if !slices.Contains(p.nav, path) {
			p.nav = append(p.nav, path)
			unknown = unknown || !g.vocab(n.Path)
		}
		if inPre {
			p.pre = appendNew(p.pre, path)
		} else {
			p.cur = appendNew(p.cur, path)
		}
	})
	return p, unknown
}

// intern returns the dotted form of a navigation path, one string per
// distinct path.
func (g *generator) intern(path []string) string {
	if len(path) == 1 {
		return path[0]
	}
	key := g.buf[:0]
	for i, seg := range path {
		if i > 0 {
			key = append(key, '.')
		}
		key = append(key, seg...)
	}
	g.buf = key
	if s, ok := g.interned[string(key)]; ok {
		return s
	}
	s := string(key)
	g.interned[s] = s
	return s
}

// conj is conj over clauses: the conjunction of a and b, its paths and
// its rendering.
func (g *generator) conj(a, b *clause) *clause {
	switch e := conj(a.expr, b.expr); e {
	case a.expr:
		return a
	case b.expr:
		return b
	default:
		// Operands, " and " and a pair of parentheses around each.
		size := len(g.texts[a.expr]) + len(g.texts[b.expr]) + 9
		g.texts[e] = ocl.Render(e, g.texts, size)
		return &clause{expr: e, paths: a.paths.and(b.paths)}
	}
}

// render renders a contract's combined condition from its case clauses'
// texts into a buffer of the given size, which the text fills to within
// a few bytes: the contract keeps the text for its life.
func (g *generator) render(e ocl.Expr, size int) string {
	text := ocl.Render(e, g.texts, size)
	g.texts[e] = text
	return text
}

// text returns the rendering of a formula or clause Generate built.
func (g *generator) text(e ocl.Expr) string { return g.texts[e] }
