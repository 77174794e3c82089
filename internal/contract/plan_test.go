package contract

import (
	"reflect"
	"sort"
	"testing"

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

// TestPlanPreOrderingOnPaperModel: pre clauses stay in model order on
// every paper contract, and PrePaths lists their paths in first-use
// order: the DELETE contract's three disjuncts share one path set, so it
// is the first disjunct's.
func TestPlanPreOrderingOnPaperModel(t *testing.T) {
	set := generate(t)
	for _, c := range set.Contracts {
		for i, cl := range c.Plan().Pre {
			if cl.Index != i {
				t.Errorf("%s: pre clause %d out of model order (index %d)", c.Trigger, i, cl.Index)
			}
		}
	}
	c, _ := set.For(uml.Trigger{Method: uml.DELETE, Resource: "volume"})
	p := c.Plan()
	for _, cl := range p.Pre {
		if !reflect.DeepEqual(cl.Paths, p.Pre[0].Paths) {
			t.Errorf("clause %d reads %v, clause 0 %v; want one shared path set", cl.Index, cl.Paths, p.Pre[0].Paths)
		}
	}
	if !reflect.DeepEqual(p.PrePaths, p.Pre[0].Paths) {
		t.Errorf("PrePaths = %v, want the first clause's paths %v", p.PrePaths, p.Pre[0].Paths)
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
