package contract

import (
	"math/rand"
	"strings"
	"testing"

	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// TestCinderFactsExclusions: on every shipped model, Cinder and Nova, the
// pre-condition disjuncts of one contract exclude one another — the
// same-trigger transitions are deterministic. It is checked by evaluation
// over a seeded random-state corpus: no state makes two disjuncts of one
// contract true, and every disjunct is true in some state, so the check
// cannot pass by never firing a case.
func TestCinderFactsExclusions(t *testing.T) {
	for _, m := range []struct {
		name  string
		model *uml.Model
	}{{"cinder", paper.CinderModel()}, {"nova", paper.NovaModel()}} {
		t.Run(m.name, func(t *testing.T) {
			set, err := Generate(m.model)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			for _, c := range set.Contracts {
				checkDisjunctsExclusive(t, c, rng)
			}
		})
	}
}

// checkDisjunctsExclusive evaluates every disjunct of c over 500 random
// states.
func checkDisjunctsExclusive(t *testing.T, c *Contract, rng *rand.Rand) {
	t.Helper()
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
