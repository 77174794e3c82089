package contract

import (
	"reflect"
	"sort"
	"testing"

	"cloudmon/internal/ocl"
	"cloudmon/internal/uml"
)

// TestStatePathsMemoized: StatePaths computes once and returns the same
// slice on every call — the hot path (one call per request per snapshot)
// must not re-walk the contract's ASTs.
func TestStatePathsMemoized(t *testing.T) {
	set := generate(t)
	c, _ := set.For(uml.Trigger{Method: uml.DELETE, Resource: "volume"})
	a := c.StatePaths()
	b := c.StatePaths()
	if len(a) == 0 {
		t.Fatal("StatePaths is empty")
	}
	if &a[0] != &b[0] {
		t.Error("StatePaths recomputed: two calls returned distinct slices")
	}
}

// TestPlanMemoized: Generate precomputes the plan; Plan() always hands out
// the same object.
func TestPlanMemoized(t *testing.T) {
	set := generate(t)
	c, _ := set.For(uml.Trigger{Method: uml.GET, Resource: "volume"})
	if c.Plan() != c.Plan() {
		t.Error("Plan recomputed: two calls returned distinct plans")
	}
}

// TestPlanCoversEveryCase: each case appears exactly once in both clause
// lists, post-clauses stay in model order, and the pre-clause union equals
// the contract's whole state-path set.
func TestPlanCoversEveryCase(t *testing.T) {
	set := generate(t)
	for _, c := range set.Contracts {
		p := c.Plan()
		if len(p.Pre) != len(c.Cases) || len(p.Post) != len(c.Cases) {
			t.Fatalf("%s: plan has %d pre / %d post clauses for %d cases",
				c.Trigger, len(p.Pre), len(p.Post), len(c.Cases))
		}
		seen := make(map[int]bool)
		for _, cl := range p.Pre {
			if seen[cl.Index] {
				t.Errorf("%s: pre clause %d appears twice", c.Trigger, cl.Index)
			}
			seen[cl.Index] = true
		}
		for i, cl := range p.Post {
			if cl.Index != i {
				t.Errorf("%s: post clause %d out of model order (index %d)", c.Trigger, i, cl.Index)
			}
		}
		union := append([]string(nil), p.PrePaths...)
		whole := append([]string(nil), c.StatePaths()...)
		sort.Strings(union)
		sort.Strings(whole)
		if !reflect.DeepEqual(union, whole) {
			t.Errorf("%s: pre-clause union %v != state paths %v", c.Trigger, union, whole)
		}
	}
}

// TestPlanPreOrderingOnPaperModel: the DELETE contract's three disjuncts
// share one path set, so ordering falls to static cost — the
// quota-exhausted disjunct (no size guard) is smallest and runs first.
func TestPlanPreOrderingOnPaperModel(t *testing.T) {
	set := generate(t)
	c, _ := set.For(uml.Trigger{Method: uml.DELETE, Resource: "volume"})
	p := c.Plan()
	for i := 1; i < len(p.Pre); i++ {
		a, b := p.Pre[i-1], p.Pre[i]
		if len(a.Paths) > len(b.Paths) {
			t.Errorf("pre clauses out of order: %d paths before %d", len(a.Paths), len(b.Paths))
		}
		if len(a.Paths) == len(b.Paths) && a.Cost > b.Cost {
			t.Errorf("pre clauses out of cost order: cost %d before %d", a.Cost, b.Cost)
		}
	}
	// First clause pays for every path; the rest (same path set) add none.
	if !reflect.DeepEqual(p.Pre[0].Added, p.Pre[0].Paths) {
		t.Errorf("first clause Added = %v, want its full path set %v", p.Pre[0].Added, p.Pre[0].Paths)
	}
	for _, cl := range p.Pre[1:] {
		if len(cl.Added) != 0 {
			t.Errorf("clause %d Added = %v, want none (paths already fetched)", cl.Index, cl.Added)
		}
	}
}

// TestPlanOrdersCheapDisjunctFirst: a synthetic contract where one disjunct
// reads strictly fewer paths — it must lead the plan regardless of model
// order, and the wide clause's Added holds only its marginal paths.
func TestPlanOrdersCheapDisjunctFirst(t *testing.T) {
	wide := ocl.MustParse("a.b = 1 and c.d = 2 and e.f = 3")
	narrow := ocl.MustParse("a.b = 1")
	c := &Contract{
		Cases: []Case{
			{Pre: wide, Post: ocl.MustParse("a.b = 1")},
			{Pre: narrow, Post: ocl.MustParse("a.b = 1")},
		},
	}
	p := c.Plan()
	if p.Pre[0].Index != 1 {
		t.Fatalf("plan leads with clause %d, want the narrow clause 1", p.Pre[0].Index)
	}
	if want := []string{"a.b"}; !reflect.DeepEqual(p.Pre[0].Added, want) {
		t.Errorf("narrow clause Added = %v, want %v", p.Pre[0].Added, want)
	}
	if want := []string{"c.d", "e.f"}; !reflect.DeepEqual(p.Pre[1].Added, want) {
		t.Errorf("wide clause Added = %v, want marginal %v", p.Pre[1].Added, want)
	}
	if want := []string{"a.b", "c.d", "e.f"}; !reflect.DeepEqual(p.PrePaths, want) {
		t.Errorf("PrePaths = %v, want %v", p.PrePaths, want)
	}
}

// TestPlanPostClausePaths: post-clauses split the consequent's reads by
// environment and record the effect frame.
func TestPlanPostClausePaths(t *testing.T) {
	set := generate(t)
	c, _ := set.For(uml.Trigger{Method: uml.DELETE, Resource: "volume"})
	p := c.Plan()
	for _, cl := range p.Post {
		if want := []string{"project.volumes"}; !reflect.DeepEqual(cl.PrePaths, want) {
			t.Errorf("clause %d PrePaths = %v, want %v (the volumes@pre reference)", cl.Index, cl.PrePaths, want)
		}
		if want := []string{"project.volumes"}; !reflect.DeepEqual(cl.Touched, want) {
			t.Errorf("clause %d Touched = %v, want %v (DELETE only shrinks the volume set)", cl.Index, cl.Touched, want)
		}
		for _, path := range cl.CurPaths {
			found := false
			for _, p := range c.StatePaths() {
				if p == path {
					found = true
				}
			}
			if !found {
				t.Errorf("clause %d reads %q, not a contract state path", cl.Index, path)
			}
		}
	}
}
