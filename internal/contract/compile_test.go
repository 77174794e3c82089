package contract

import (
	"testing"

	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// paperDeleteCompiled returns the paper DELETE-volume contract's plan and
// compiled artifact — the workload the tentpole's performance claims are
// pinned against.
func paperDeleteCompiled(t testing.TB) (*Contract, *Plan) {
	t.Helper()
	set, err := Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	c, ok := set.For(uml.Trigger{Method: uml.DELETE, Resource: "volume"})
	if !ok {
		t.Fatal("no DELETE volume contract")
	}
	return c, c.Plan()
}

func okDeleteEnv() ocl.MapEnv {
	return ocl.MapEnv{
		"project.id":        ocl.StringVal("p"),
		"project.volumes":   ocl.CollectionVal(ocl.StringVal("a"), ocl.StringVal("b")),
		"quota_sets.volume": ocl.IntVal(10),
		"volume.status":     ocl.StringVal("available"),
		"user.id.groups":    ocl.StringsVal("admin"),
	}
}

// fillCur loads every contract path into the frame's current bank, the
// state of a pre-check whose demands have all been fetched.
func fillCur(fr *Frame, env ocl.MapEnv, paths []string) {
	for _, p := range paths {
		v, ok := env[p]
		fr.SetCur(p, v, ok)
	}
}

// preCheck runs the compiled pre-check to a verdict: the disjunction of
// the plan-ordered clause programs, stopping at the first true.
func preCheck(t testing.TB, plan *Plan, fr *Frame, env ocl.MapEnv) bool {
	fr.Reset()
	fillCur(fr, env, plan.Compiled.Paths())
	for _, pc := range plan.Pre {
		v, err := plan.Compiled.PreProgram(pc.Index).Run(fr)
		if err != nil {
			t.Fatal(err)
		}
		if b, defined, ok := ocl.KernelBool(v); ok && defined && b {
			return true
		}
	}
	return false
}

// TestCompiledPreCheckZeroAllocs is the tentpole's allocation gate: once
// the frame pool is warm, a full compiled pre-check of the paper's DELETE
// contract — frame reset, five slot fills, clause programs to a verdict —
// allocates nothing. Any regression here (a closure capturing loop state,
// a collection built off-arena, an error wrapped on the hot path) fails
// the build, not a profile review.
func TestCompiledPreCheckZeroAllocs(t *testing.T) {
	_, plan := paperDeleteCompiled(t)
	env := okDeleteEnv()
	fr := plan.Compiled.NewFrame()
	defer plan.Compiled.Release(fr)
	if !preCheck(t, plan, fr, env) {
		t.Fatal("pre-check did not pass on the OK state")
	}
	allocs := testing.AllocsPerRun(200, func() {
		preCheck(t, plan, fr, env)
	})
	if allocs != 0 {
		t.Errorf("compiled OK-path pre-check allocates %.1f objects/run, want 0", allocs)
	}
}

// TestCompiledViolationAllocsBounded gates the violation path: a failing
// pre-check walks every clause program to false and may surface evaluation
// machinery the OK path short-circuits past, but it must stay within a
// small constant — no per-element or per-path allocation.
func TestCompiledViolationAllocsBounded(t *testing.T) {
	_, plan := paperDeleteCompiled(t)
	env := okDeleteEnv()
	env["user.id.groups"] = ocl.StringsVal("intruder")
	env["volume.status"] = ocl.StringVal("in-use")
	fr := plan.Compiled.NewFrame()
	defer plan.Compiled.Release(fr)
	if preCheck(t, plan, fr, env) {
		t.Fatal("pre-check passed on the violating state")
	}
	allocs := testing.AllocsPerRun(200, func() {
		preCheck(t, plan, fr, env)
	})
	if allocs > 2 {
		t.Errorf("compiled violation-path pre-check allocates %.1f objects/run, want <= 2", allocs)
	}
}

// TestCompiledPostZeroAllocs extends the gate through the post-check: the
// consequent programs over a turned-around frame (the pre-state fill
// becomes the pre bank, the current bank is refilled with the post-state)
// also run allocation-free.
func TestCompiledPostZeroAllocs(t *testing.T) {
	c, plan := paperDeleteCompiled(t)
	preEnv := okDeleteEnv()
	postEnv := okDeleteEnv()
	postEnv["project.volumes"] = ocl.CollectionVal(ocl.StringVal("a"))
	comp := plan.Compiled
	// Post programs are consequent-only: the antecedent's verdict is
	// carried over from the pre-check, so run just the cases whose
	// antecedent held on the pre-state.
	var active []int
	for i, cs := range c.Cases {
		v, err := ocl.Eval(cs.Pre, ocl.Context{Cur: preEnv})
		if err != nil {
			t.Fatal(err)
		}
		if b, defined, ok := ocl.KernelBool(v); ok && defined && b {
			active = append(active, i)
		}
	}
	if len(active) == 0 {
		t.Fatal("no active cases on the OK pre-state")
	}
	fr := comp.NewFrame()
	defer comp.Release(fr)
	postCheck := func() bool {
		fr.Reset()
		fillCur(fr, preEnv, comp.Paths())
		fr.BeginPost()
		fillCur(fr, postEnv, comp.Paths())
		for _, i := range active {
			v, err := comp.PostProgram(i).Run(fr)
			if err != nil {
				t.Fatal(err)
			}
			if b, defined, ok := ocl.KernelBool(v); !ok || !defined || !b {
				return false
			}
		}
		return true
	}
	if !postCheck() {
		t.Fatal("post-check did not pass on the OK transition")
	}
	allocs := testing.AllocsPerRun(200, func() {
		postCheck()
	})
	if allocs != 0 {
		t.Errorf("compiled OK-path post-check allocates %.1f objects/run, want 0", allocs)
	}
}

// TestCompiledExprMatchesTreeWalkOnContracts pins program-level soundness
// on the real workload (the fuzzer covers the grammar): every clause of
// every generated contract, compiled standalone, agrees with the tree walk
// over characteristic states.
func TestCompiledExprMatchesTreeWalkOnContracts(t *testing.T) {
	set, err := Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	envs := []ocl.MapEnv{
		okDeleteEnv(),
		{},
		{"user.id.groups": ocl.StringsVal("intruder"), "project.volumes": ocl.IntVal(3)},
		{"quota_sets.volume": ocl.StringVal("ten"), "volume.status": ocl.StringVal("in-use")},
	}
	for _, c := range set.Contracts {
		for ci, cs := range c.Cases {
			for _, e := range []ocl.Expr{cs.Pre, cs.Post, cs.Effect} {
				ce := CompileExpr(e)
				for ei, env := range envs {
					ctx := ocl.Context{Cur: env, Pre: envs[0]}
					wantV, wantErr := ocl.Eval(e, ctx)
					gotV, gotErr := ce.Eval(env, envs[0])
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s case %d env %d: error divergence: %v vs %v", c.Trigger, ci, ei, wantErr, gotErr)
					}
					if wantErr == nil && !wantV.Equal(gotV) {
						t.Fatalf("%s case %d env %d: value divergence: %v vs %v", c.Trigger, ci, ei, wantV, gotV)
					}
				}
			}
		}
	}
}

// TestCompiledSlotsCoverPlanPaths: every path the plan names has a frame
// slot — each pre clause's paths (what a wave reads), each post clause's
// CurPaths, PrePaths (what the pre-state top-up reads) and Touched (the
// effect frame post reuse checks) — so a value the monitor fetched always
// lands in the frame and so in the verdict's snapshot of record. The
// synthetic contract's effect names a path no program reads.
func TestCompiledSlotsCoverPlanPaths(t *testing.T) {
	set, err := Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	handBuilt := &Contract{Cases: []Case{{
		Pre:    ocl.MustParse("thing.other->size() >= 1"),
		Post:   ocl.MustParse("thing.other->size() >= 1"),
		Effect: ocl.MustParse("thing.items->size() = 0"),
	}}}
	for _, c := range append(set.Contracts, handBuilt) {
		plan := c.Plan()
		slots := map[string]bool{}
		for _, p := range plan.Compiled.Paths() {
			slots[p] = true
		}
		var want []string
		for _, pc := range plan.Pre {
			want = append(want, pc.Paths...)
		}
		for _, pc := range plan.Post {
			want = append(append(append(want, pc.CurPaths...), pc.PrePaths...), pc.Touched...)
		}
		for _, p := range want {
			if !slots[p] {
				t.Errorf("%s: plan path %s has no frame slot", c.Trigger, p)
			}
		}
	}
}

// TestFrameReleaseTwicePanics: a frame pooled twice would be handed to
// two requests at once, so the second Release refuses it.
func TestFrameReleaseTwicePanics(t *testing.T) {
	_, plan := paperDeleteCompiled(t)
	fr := plan.Compiled.NewFrame()
	plan.Compiled.Release(fr)
	defer func() {
		if recover() == nil {
			t.Error("second Release of the same frame did not panic")
		}
	}()
	plan.Compiled.Release(fr)
}

// TestFrameBeginPostTurnsAround: BeginPost makes the pre-state fill the
// pre bank without copying and starts an empty current bank; the
// snapshot read back from the current bank is what was filled.
func TestFrameBeginPostTurnsAround(t *testing.T) {
	_, plan := paperDeleteCompiled(t)
	comp := plan.Compiled
	fr := comp.NewFrame()
	defer comp.Release(fr)
	fr.SetCur("project.id", ocl.StringVal("p"), true)
	fr.SetCur("volume.status", ocl.Value{}, false)
	if _, _, filled := fr.Pre("project.id"); filled {
		t.Fatal("pre bank filled before BeginPost")
	}
	fr.BeginPost()
	if v, present, filled := fr.Pre("project.id"); !filled || !present || v.Str != "p" {
		t.Errorf("pre bank project.id = %v present %v filled %v, want p", v, present, filled)
	}
	if _, present, filled := fr.Pre("volume.status"); !filled || present {
		t.Errorf("pre bank volume.status present %v filled %v, want fetched-but-absent", present, filled)
	}
	if _, _, filled := fr.Cur("project.id"); filled {
		t.Error("current bank not emptied by BeginPost")
	}
	fr.SetCur("project.id", ocl.StringVal("q"), true)
	if v, _, _ := fr.Pre("project.id"); v.Str != "p" {
		t.Errorf("pre bank project.id = %v after a post-state fill, want p", v)
	}
	if got := fr.CurEnv(); len(got) != 1 || got["project.id"].Str != "q" {
		t.Errorf("CurEnv = %v, want {project.id: q}", got)
	}
}
