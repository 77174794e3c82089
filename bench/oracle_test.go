package main

import (
	"fmt"
	"net/http"
	"testing"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// TestOracleMatchesContractPreconditions cross-checks the Table I oracle
// against the pre-conditions generated from the paper's model: for every
// role and method, in every project size the workloads' bands allow, the
// contract admits the request exactly when the oracle permits it.
func TestOracleMatchesContractPreconditions(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	methods := []string{http.MethodGet, http.MethodPut, http.MethodPost, http.MethodDelete}
	roles := []string{roleAdmin, roleMember, roleUser, roleAnonymous}
	for _, w := range workloads {
		// The smallest and largest project listing the workload can reach.
		per := 1
		if w.shared {
			per = clients
		}
		for _, size := range []int{w.lo * per, w.hi * per} {
			for _, method := range methods {
				c, ok := set.For(uml.Trigger{Method: uml.HTTPMethod(method), Resource: "volume"})
				if !ok {
					t.Fatalf("no contract for %s volume", method)
				}
				for _, role := range roles {
					env := stateEnv(size, role)
					got, err := ocl.EvalBool(c.Pre, ocl.Context{Cur: env})
					if err != nil {
						got = false // an undefined requester fails every guard
					}
					if want := permitted(role, method); got != want {
						t.Errorf("%s: %s as %s with %d volumes: contract pre-condition %v, oracle %v",
							w.name, method, role, size, got, want)
					}
				}
			}
		}
	}
}

// stateEnv is the state a workload request sees: a project with size
// volumes, the benchmark's large quota, an available addressed volume,
// and the requester's role (undefined for the anonymous requester).
func stateEnv(size int, role string) ocl.MapEnv {
	vols := make([]ocl.Value, size)
	for i := range vols {
		vols[i] = ocl.StringVal("v")
	}
	groups := ocl.Undefined()
	if role != roleAnonymous {
		groups = ocl.StringsVal(role)
	}
	return ocl.MapEnv{
		"project.id":        ocl.StringVal("p"),
		"project.volumes":   ocl.CollectionVal(vols...),
		"quota_sets.volume": ocl.IntVal(1_000_000),
		"volume.status":     ocl.StringVal("available"),
		"user.id.groups":    groups,
	}
}

func TestExpectedStatus(t *testing.T) {
	cases := []struct {
		role, method string
		inPool       bool
		want         int
		ok           bool
	}{
		{roleUser, http.MethodGet, true, http.StatusOK, true},
		{roleAnonymous, http.MethodGet, true, blockStatus, true},
		{roleMember, http.MethodDelete, true, blockStatus, true},
		{roleAdmin, http.MethodDelete, true, http.StatusOK, true},
		{roleAdmin, http.MethodDelete, false, 0, false},
		{roleMember, http.MethodPost, false, http.StatusOK, true},
		{roleUser, http.MethodPut, false, blockStatus, true},
	}
	for _, c := range cases {
		got, ok := expectedStatus(c.role, c.method, c.inPool)
		if got != c.want || ok != c.ok {
			t.Errorf("expectedStatus(%s, %s, %v) = %d, %v; want %d, %v", c.role, c.method, c.inPool, got, ok, c.want, c.ok)
		}
	}
	if !statusMatches(http.StatusOK, http.StatusAccepted) || statusMatches(http.StatusOK, blockStatus) || !statusMatches(blockStatus, blockStatus) {
		t.Error("statusMatches: 2xx must match a permitted request and only the block status a forbidden one")
	}
}

// TestGeneratorIsSeeded checks that a seed fixes the request sequence
// and that the pools stay inside the band.
func TestGeneratorIsSeeded(t *testing.T) {
	w, err := lookupWorkload("mixed-inproc-fleet2")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) []request {
		pools := make([][]string, w.projectsPerClient)
		for p := range pools {
			for v := range (w.lo + w.hi) / 2 {
				pools[p] = append(pools[p], fmt.Sprintf("seed-%d-%d", p, v))
			}
		}
		g := newGenerator(w, seed, 0, pools)
		var seq []request
		for i := range 5000 {
			r := g.next()
			seq = append(seq, r)
			status, _ := expectedStatus(r.cell.role, r.cell.method, true)
			g.apply(r, status, fmt.Sprintf("new-%d", i))
		}
		for _, p := range g.pools {
			if len(p) < w.lo || len(p) > w.hi {
				t.Fatalf("pool of %d volumes outside the band %d..%d", len(p), w.lo, w.hi)
			}
		}
		return seq
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := func(x, y []request) bool {
		for i := range x {
			if x[i].cell != y[i].cell || x[i].project != y[i].project || x[i].slot != y[i].slot {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed drew different sequences")
	}
	if same(a, c) {
		t.Error("different seeds drew the same sequence")
	}
}
