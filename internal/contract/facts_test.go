package contract

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// TestFactsStaticClauses: a disjunct whose guard is contradictory folds
// to a static false; its paths leave the demand universe, its implication
// is vacuous, and paths only it read are reported dead.
func TestFactsStaticClauses(t *testing.T) {
	c := &Contract{
		Cases: []Case{
			{
				Pre:  ocl.MustParse("thing.items->size() = 1 and 2 > 3"),
				Post: ocl.MustParse("thing.items->size() = 0"),
			},
			{
				Pre:  ocl.MustParse("thing.other->size() >= 1"),
				Post: ocl.MustParse("thing.other->size() >= 1"),
			},
		},
	}
	f := c.Plan().Facts
	if err := f.Check(c); err != nil {
		t.Fatal(err)
	}
	pf := f.Pre[0]
	if !pf.Rewritten || pf.Folded.String() != "thing.items->size() = 1 and false" {
		t.Errorf("folded = %q (rewritten=%v)", pf.Folded, pf.Rewritten)
	}
	if pf.Static == nil || pf.Static.Kind != ocl.KindBool || pf.Static.Bool {
		t.Fatalf("case 0 static = %v, want false", pf.Static)
	}
	if pf.Reason == "" {
		t.Error("static fact carries no reason trace")
	}
	if s := f.Post[0].AnteStatic; s == nil || s.Bool {
		t.Errorf("post 0 AnteStatic = %v, want false", s)
	}
	if len(f.DeadPaths) != 1 || f.DeadPaths[0].Path != "thing.items" {
		t.Errorf("dead paths = %v, want [thing.items]", f.DeadPaths)
	}
	if f.Pre[1].Static != nil {
		t.Errorf("case 1 unexpectedly static: %v", f.Pre[1].Static)
	}

	// A tautological disjunct is static true; nothing is dead (its
	// consequent still runs).
	c2 := &Contract{Cases: []Case{{
		Pre:  ocl.MustParse("2 > 1"),
		Post: ocl.MustParse("thing.items->size() = 0"),
	}}}
	f2 := c2.Plan().Facts
	if s := f2.Pre[0].Static; s == nil || !s.Bool {
		t.Fatalf("static = %v, want true", s)
	}
	if len(f2.DeadPaths) != 0 {
		t.Errorf("dead paths = %v, want none", f2.DeadPaths)
	}
}

// TestFactsSubsumption: a strictly stronger disjunct is reported as
// subsumed by its weaker sibling (diagnostic MV702 feed).
func TestFactsSubsumption(t *testing.T) {
	c := &Contract{
		Cases: []Case{
			{Pre: ocl.MustParse("a.x->size() >= 1"), Post: ocl.MustParse("a.x->size() >= 1")},
			{Pre: ocl.MustParse("a.x->size() > 1"), Post: ocl.MustParse("a.x->size() >= 1")},
		},
	}
	f := c.Plan().Facts
	if got := f.Pre[1].SubsumedBy; len(got) != 1 || got[0] != 0 {
		t.Errorf("case 1 SubsumedBy = %v, want [0]", got)
	}
	if len(f.Pre[0].SubsumedBy) != 0 {
		t.Errorf("case 0 SubsumedBy = %v, want none", f.Pre[0].SubsumedBy)
	}
}

// TestCinderFactsExclusions: on the paper's Cinder model every contract's
// pre-condition disjuncts exclude one another, and the symbolic pass proves
// nothing beyond the per-state evaluation: no static value, no
// subsumption, no fold rewrite, no dead path. Exclusion is checked by
// evaluation over the random-state corpus: no state makes two disjuncts of
// one contract true.
func TestCinderFactsExclusions(t *testing.T) {
	set := generate(t)
	rng := rand.New(rand.NewSource(11))
	for _, c := range set.Contracts {
		f := c.Plan().Facts
		if f == nil {
			t.Fatalf("%s: no facts", c.Trigger)
		}
		if err := f.Check(c); err != nil {
			t.Fatalf("%s: %v", c.Trigger, err)
		}
		for i, pf := range f.Pre {
			if pf.Static != nil {
				t.Errorf("%s case %d: unexpected static value %s", c.Trigger, i, pf.Static)
			}
			if len(pf.SubsumedBy) != 0 {
				t.Errorf("%s case %d: unexpected subsumption by %v", c.Trigger, i, pf.SubsumedBy)
			}
			if pf.Rewritten {
				t.Errorf("%s case %d: unexpected fold rewrite to %s", c.Trigger, i, pf.Folded)
			}
		}
		if len(f.DeadPaths) != 0 {
			t.Errorf("%s: unexpected dead paths %v", c.Trigger, f.DeadPaths)
		}

		var paths []string
		seen := map[string]bool{}
		for _, cs := range c.Cases {
			for _, p := range ocl.NavPaths(cs.Pre) {
				if !seen[p] {
					seen[p] = true
					paths = append(paths, p)
				}
			}
		}
		hits := map[int]int{}
		for n := 0; n < 500; n++ {
			env := randomState(rng, paths)
			var held []int
			for i, cs := range c.Cases {
				v, err := ocl.Eval(cs.Pre, ocl.Context{Cur: env})
				if err == nil && v.Kind == ocl.KindBool && v.Bool {
					held = append(held, i)
					hits[i]++
				}
			}
			if len(held) > 1 {
				t.Errorf("%s: cases %v all hold on %v", c.Trigger, held, env)
			}
		}
		if len(hits) != len(c.Cases) {
			t.Errorf("%s: the corpus made only cases %v true, want each of %d", c.Trigger, hits, len(c.Cases))
		}
	}
}

// TestFactsOnShippedModels: the artifact machine-check passes on every
// model the repository ships.
func TestFactsOnShippedModels(t *testing.T) {
	models := map[string]*uml.Model{
		"cinder": paper.CinderModel(),
		"nova":   paper.NovaModel(),
	}
	for name, m := range models {
		set, err := Generate(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range set.Contracts {
			if err := c.Plan().Facts.Check(c); err != nil {
				t.Errorf("%s %s: %v", name, c.Trigger, err)
			}
		}
	}
}

// randomState draws a state over the given paths, shaped like the monitor
// differential suites' random corpus: values of the kind each path
// usually holds (ids, collections, counts, statuses, role lists), one path
// in four dropped and one in six replaced by a wrong-kind string, so
// Undefined and evaluation errors flow through every clause.
func randomState(rng *rand.Rand, paths []string) ocl.MapEnv {
	roles := []string{"admin", "member", "user", "intruder", ""}
	statuses := []string{"available", "in-use", "error", ""}
	env := ocl.MapEnv{}
	for _, p := range paths {
		last := p[strings.LastIndex(p, ".")+1:]
		switch {
		case p == "user.id.groups":
			env[p] = ocl.StringsVal(roles[rng.Intn(len(roles))])
		case last == "id":
			env[p] = ocl.StringVal("p1")
		case last == "status":
			env[p] = ocl.StringVal(statuses[rng.Intn(len(statuses))])
		case strings.HasSuffix(last, "s"):
			elems := make([]ocl.Value, rng.Intn(4))
			for i := range elems {
				elems[i] = ocl.StringVal("v")
			}
			env[p] = ocl.CollectionVal(elems...)
		default:
			env[p] = ocl.IntVal(rng.Intn(4))
		}
	}
	if len(paths) > 0 && rng.Intn(4) == 0 {
		delete(env, paths[rng.Intn(len(paths))])
	}
	if len(paths) > 0 && rng.Intn(6) == 0 {
		env[paths[rng.Intn(len(paths))]] = ocl.StringVal("zz")
	}
	return env
}

// TestFactsAgreeWithFullEvaluation checks every fact against ocl.Eval of
// the full clause over a random-state corpus, on the shipped models and
// the synthetic static-clause contracts: each folded pre- and post-clause
// evaluates to the original's value or fails with it, and each static
// value is what the disjunct evaluates to. A statically false antecedent
// is a static value, so the vacuous post implications are covered too.
// Each static disjunct's compiled program must return its value on an
// empty frame, without a demand: it reads no path.
func TestFactsAgreeWithFullEvaluation(t *testing.T) {
	var contracts []*Contract
	for _, m := range []*uml.Model{paper.CinderModel(), paper.NovaModel()} {
		set, err := Generate(m)
		if err != nil {
			t.Fatal(err)
		}
		contracts = append(contracts, set.Contracts...)
	}
	contracts = append(contracts,
		&Contract{Cases: []Case{
			{Pre: ocl.MustParse("thing.items->size() = 1 and 2 > 3"), Post: ocl.MustParse("thing.items->size() = 0")},
			{Pre: ocl.MustParse("thing.other->size() >= 1"), Post: ocl.MustParse("thing.other->size() >= 1")},
		}},
		&Contract{Cases: []Case{
			{Pre: ocl.MustParse("2 > 1"), Post: ocl.MustParse("thing.items->size() = 0")},
		}},
		// An element that may error (arithmetic on an arbitrary kind):
		// folding must keep the error.
		&Contract{Cases: []Case{
			{Pre: ocl.MustParse("a.x->size() = 0"), Post: ocl.MustParse("a.x->size() = 0")},
			{Pre: ocl.MustParse("a.y + 1 = 2 and a.x->size() >= 1"), Post: ocl.MustParse("a.x->size() >= 1")},
		}},
	)
	same := func(v1 ocl.Value, err1 error, v2 ocl.Value, err2 error) bool {
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return v1.Equal(v2)
	}
	rng := rand.New(rand.NewSource(7))
	statics := 0
	for _, c := range contracts {
		plan := c.Plan()
		f := plan.Facts
		for i := range f.Pre {
			s := f.Pre[i].Static
			if s == nil {
				continue
			}
			statics++
			fr := plan.Compiled.NewFrame()
			v, err := plan.Compiled.PreProgram(i).Run(fr)
			plan.Compiled.Release(fr)
			if err != nil || !v.Equal(*s) {
				t.Errorf("%s case %d: static %s compiles to a program giving %v (%v) on an empty frame",
					c.Trigger, i, s, v, err)
			}
		}
		var paths []string
		seen := map[string]bool{}
		for _, cs := range c.Cases {
			for _, p := range append(ocl.NavPaths(cs.Pre), ocl.NavPaths(cs.Post)...) {
				if !seen[p] {
					seen[p] = true
					paths = append(paths, p)
				}
			}
		}
		for n := 0; n < 300; n++ {
			pre, post := randomState(rng, paths), randomState(rng, paths)
			cur := ocl.Context{Cur: pre}
			both := ocl.Context{Cur: post, Pre: pre}
			for i, cs := range c.Cases {
				name := fmt.Sprintf("%s case %d, pre=%v post=%v", c.Trigger, i, pre, post)
				full, err := ocl.Eval(cs.Pre, cur)
				if fv, ferr := ocl.Eval(f.Pre[i].Folded, cur); !same(full, err, fv, ferr) {
					t.Errorf("%s: folded pre-clause %s gives %v (%v), the clause %v (%v)", name, f.Pre[i].Folded, fv, ferr, full, err)
				}
				if s := f.Pre[i].Static; s != nil && (err != nil || !full.Equal(*s)) {
					t.Errorf("%s: static value %s, the clause evaluates to %v (%v)", name, s, full, err)
				}
				pv, perr := ocl.Eval(cs.Post, both)
				if fv, ferr := ocl.Eval(f.Post[i].Folded, both); !same(pv, perr, fv, ferr) {
					t.Errorf("%s: folded post-clause %s gives %v (%v), the clause %v (%v)", name, f.Post[i].Folded, fv, ferr, pv, perr)
				}
			}
		}
	}
	t.Logf("%d static values checked", statics)
	if statics == 0 {
		t.Error("the corpus exercised no static value")
	}
}
