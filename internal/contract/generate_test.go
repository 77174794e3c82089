package contract

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cloudmon/internal/ocl"
	"cloudmon/internal/uml"
)

// Formula pools for genRichModel: shapes that reach every way Generate
// composes a case from its parts — literal-true sides dropped, operands
// that need parentheses (or, implies, xor), pre() and @pre reads, iterator
// variables shadowing nothing and paths repeated across formulas.
var (
	richInvariants = []string{
		"",
		"item.count >= 0",
		"item.count >= 1 and item.state <> 'gone'",
		"item.count = 0 or item.state = 'empty'",
		"item.count > 2 implies item.state = 'full'",
		"roots.item->size() = item.count",
	}
	richGuards = []string{
		"",
		"user.id.groups = 'admin'",
		"user.id.groups = 'admin' or user.id.groups = 'member'",
		"(user.id.groups = 'admin' or user.id.groups = 'member') and item.count < 9",
		"not (item.state = 'locked') xor item.count = 3",
		"roots.item->forAll(i | i <> item.id)",
	}
	richEffects = []string{
		"",
		"item.count = pre(item.count) + 1",
		"item.count@pre = item.count and item.state = 'busy'",
		"pre(item.state) = 'busy' implies item.state = 'idle'",
		"roots.item->select(i | i = item.id)->size() = pre(roots.item->size()) - 1",
		"item.state = 'x' or pre(item.count) > item.count",
	}
)

// genRichModel builds a random valid model over genModel's vocabulary
// whose invariants, guards and effects come from the pools above, so
// states and transitions share texts as the paper's models do.
func genRichModel(r *rand.Rand) *uml.Model {
	m := genModel(r)
	bm := &uml.BehavioralModel{Name: "rich_sm"}
	nStates := 1 + r.Intn(4)
	for i := 0; i < nStates; i++ {
		bm.States = append(bm.States, &uml.State{
			Name:      fmt.Sprintf("s%d", i),
			Initial:   i == 0,
			Invariant: richInvariants[r.Intn(len(richInvariants))],
		})
	}
	methods := []uml.HTTPMethod{uml.GET, uml.PUT, uml.POST, uml.DELETE}
	for i, n := 0, 1+r.Intn(10); i < n; i++ {
		bm.Transitions = append(bm.Transitions, &uml.Transition{
			From:    fmt.Sprintf("s%d", r.Intn(nStates)),
			To:      fmt.Sprintf("s%d", r.Intn(nStates)),
			Trigger: uml.Trigger{Method: methods[r.Intn(len(methods))], Resource: "item"},
			Guard:   richGuards[r.Intn(len(richGuards))],
			Effect:  richEffects[r.Intn(len(richEffects))],
			SecReqs: []string{fmt.Sprintf("9.%d", r.Intn(3))},
		})
	}
	m.Behavioral = bm
	return m
}

// TestGenerateMatchesWalk: what Generate composes from each formula's
// one parse, walk and rendering equals what the contract's ASTs give when
// walked and rendered whole — the texts, the digest, the state paths, the
// plan and the compiled slot table — and the programs whose sub-clauses
// it shares compute what unshared programs compute.
func TestGenerateMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 300; iter++ {
		set, err := Generate(genRichModel(r))
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		for _, c := range set.Contracts {
			// A copy without Generate's derived state takes every
			// accessor's walking path.
			walked := &Contract{
				Trigger: c.Trigger, URI: c.URI, Cases: c.Cases,
				Pre: c.Pre, Post: c.Post, SecReqs: c.SecReqs,
			}
			where := fmt.Sprintf("iteration %d %s", iter, c.Trigger)
			if c.PreText() != c.Pre.String() || c.PostText() != c.Post.String() {
				t.Fatalf("%s: rendered texts differ from the ASTs' renderings:\n%s\n%s", where, c.PreText(), c.PostText())
			}
			if c.Digest() != walked.Digest() {
				t.Fatalf("%s: digest %s, walked %s", where, c.Digest(), walked.Digest())
			}
			if !reflect.DeepEqual(c.StatePaths(), walked.StatePaths()) {
				t.Fatalf("%s: state paths %q, walked %q", where, c.StatePaths(), walked.StatePaths())
			}
			p, wp := c.Plan(), walked.Plan()
			if !reflect.DeepEqual(p.Pre, wp.Pre) || !reflect.DeepEqual(p.Post, wp.Post) ||
				!reflect.DeepEqual(p.PrePaths, wp.PrePaths) {
				t.Fatalf("%s: plan %+v, walked %+v", where, p, wp)
			}
			if !reflect.DeepEqual(p.Compiled.Paths(), wp.Compiled.Paths()) ||
				p.Compiled.Registers() != wp.Compiled.Registers() {
				t.Fatalf("%s: slots %q, walked %q", where, p.Compiled.Paths(), wp.Compiled.Paths())
			}
			for trial := 0; trial < 8; trial++ {
				sameRuns(t, where, c, r)
			}
		}
	}
}

// sameRuns draws one pre- and post-state over the contract's slots and
// requires each case's compiled programs, which share sub-clauses, to
// give what the case's clauses give compiled alone.
func sameRuns(t *testing.T, where string, c *Contract, r *rand.Rand) {
	t.Helper()
	values := []ocl.Value{
		ocl.Undefined(), ocl.IntVal(0), ocl.IntVal(3), ocl.StringVal("admin"),
		ocl.StringVal("busy"), ocl.StringsVal("x", "y"),
	}
	cp := c.Plan().Compiled
	fr := cp.NewFrame()
	defer cp.Release(fr)
	fill := func() ocl.MapEnv {
		env := ocl.MapEnv{}
		for i, path := range cp.Paths() {
			v, present := values[r.Intn(len(values))], r.Intn(4) > 0
			fr.SetCurSlot(i, v, present)
			if present {
				env[path] = v
			}
		}
		return env
	}
	pre := fill()
	fr.BeginPost()
	cur := fill()
	for i, cs := range c.Cases {
		for _, run := range []struct {
			prog   *Program
			clause ocl.Expr
		}{{cp.PreProgram(i), cs.Pre}, {cp.PostProgram(i), cs.Post}} {
			v, err := run.prog.Run(fr)
			got := fmt.Sprintf("%v %v", v, err)
			v, err = CompileExpr(run.clause).Eval(cur, pre)
			if want := fmt.Sprintf("%v %v", v, err); got != want {
				t.Fatalf("%s case %d: shared program gives %s, %s compiled alone %s", where, i, got, run.clause, want)
			}
		}
	}
}
