package ocl

import (
	"reflect"
	"testing"
)

func TestContextPathsSplitsByEnvironment(t *testing.T) {
	e := MustParse("pre(project.volumes) - 1 = project.volumes and quota_sets.volume > 0")
	cur, pre := ContextPaths(e)
	if want := []string{"project.volumes", "quota_sets.volume"}; !reflect.DeepEqual(cur, want) {
		t.Errorf("cur = %v, want %v", cur, want)
	}
	if want := []string{"project.volumes"}; !reflect.DeepEqual(pre, want) {
		t.Errorf("pre = %v, want %v", pre, want)
	}
}

func TestContextPathsAtPreSuffix(t *testing.T) {
	e := MustParse("volume.status@pre = 'available' and volume.status = 'deleted'")
	cur, pre := ContextPaths(e)
	if want := []string{"volume.status"}; !reflect.DeepEqual(cur, want) {
		t.Errorf("cur = %v, want %v", cur, want)
	}
	if want := []string{"volume.status"}; !reflect.DeepEqual(pre, want) {
		t.Errorf("pre = %v, want %v", pre, want)
	}
}

func TestContextPathsDistinctFirstOccurrence(t *testing.T) {
	e := MustParse("a.b = 1 and c.d = 2 and a.b = 3")
	cur, pre := ContextPaths(e)
	if want := []string{"a.b", "c.d"}; !reflect.DeepEqual(cur, want) {
		t.Errorf("cur = %v, want %v", cur, want)
	}
	if len(pre) != 0 {
		t.Errorf("pre = %v, want empty", pre)
	}
}

func TestContextPathsExcludeIteratorVariables(t *testing.T) {
	e := MustParse("project.volumes->forAll(v | v.status = volume.status)")
	cur, pre := ContextPaths(e)
	if want := []string{"project.volumes", "volume.status"}; !reflect.DeepEqual(cur, want) {
		t.Errorf("cur = %v, want %v", cur, want)
	}
	if len(pre) != 0 {
		t.Errorf("pre = %v, want empty", pre)
	}
}

func TestContextPathsNestedPreCoversWholeSubtree(t *testing.T) {
	// Everything under pre(...) is pre-state, including nested navigation.
	e := &PreExpr{Expr: MustParse("a.b = 1 and c.d->size() > 0")}
	cur, pre := ContextPaths(e)
	if len(cur) != 0 {
		t.Errorf("cur = %v, want empty", cur)
	}
	if want := []string{"a.b", "c.d"}; !reflect.DeepEqual(pre, want) {
		t.Errorf("pre = %v, want %v", pre, want)
	}
}
