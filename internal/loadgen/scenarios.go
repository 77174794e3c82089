package loadgen

import (
	"fmt"
	"sort"
)

// Scenarios returns the named workloads, sorted by name. Each is a
// self-contained default; cmd/loadmon lets flags override the knobs.
func Scenarios() []Scenario {
	out := []Scenario{
		{
			Name:        "cinder-mixed",
			Description: "mixed read/write matrix across all roles (the default load profile)",
			Mix: []OpSpec{
				{Op: OpGetVolume, Role: RoleAdmin, Weight: 20},
				{Op: OpGetVolume, Role: RoleMember, Weight: 20},
				{Op: OpGetVolume, Role: RoleUser, Weight: 10},
				{Op: OpGetVolume, Role: RoleAnonymous, Weight: 2},
				{Op: OpCreateVolume, Role: RoleAdmin, Weight: 8},
				{Op: OpCreateVolume, Role: RoleMember, Weight: 6},
				{Op: OpUpdateVolume, Role: RoleMember, Weight: 6},
				{Op: OpDeleteVolume, Role: RoleAdmin, Weight: 8},
				{Op: OpDeleteVolume, Role: RoleUser, Weight: 2},
			},
			Clients:     16,
			Requests:    4000,
			Warmup:      200,
			Prepopulate: 16,
			Seed:        1,
		},
		{
			Name:        "cinder-read-heavy",
			Description: "GET-dominated traffic — each GET reads its own pre- and post-state",
			Mix: []OpSpec{
				{Op: OpGetVolume, Role: RoleAdmin, Weight: 30},
				{Op: OpGetVolume, Role: RoleMember, Weight: 30},
				{Op: OpGetVolume, Role: RoleUser, Weight: 30},
				{Op: OpCreateVolume, Role: RoleAdmin, Weight: 1},
				{Op: OpDeleteVolume, Role: RoleAdmin, Weight: 1},
			},
			Clients:     16,
			Requests:    4000,
			Warmup:      200,
			Prepopulate: 16,
			Seed:        1,
		},
		{
			Name:        "cinder-write-heavy",
			Description: "create/delete churn — exercises post-condition checks",
			Mix: []OpSpec{
				{Op: OpCreateVolume, Role: RoleAdmin, Weight: 30},
				{Op: OpDeleteVolume, Role: RoleAdmin, Weight: 30},
				{Op: OpUpdateVolume, Role: RoleMember, Weight: 10},
				{Op: OpGetVolume, Role: RoleMember, Weight: 10},
			},
			Clients:     16,
			Requests:    4000,
			Warmup:      200,
			Prepopulate: 32,
			Seed:        1,
		},
		{
			Name:        "cinder-forbidden",
			Description: "unauthorized and anonymous writes — exercises Blocked/Rejected verdicts",
			Mix: []OpSpec{
				{Op: OpDeleteVolume, Role: RoleUser, Weight: 20},
				{Op: OpCreateVolume, Role: RoleUser, Weight: 20},
				{Op: OpCreateVolume, Role: RoleAnonymous, Weight: 10},
				{Op: OpUpdateVolume, Role: RoleAnonymous, Weight: 10},
				{Op: OpGetVolume, Role: RoleMember, Weight: 20},
			},
			Clients:     16,
			Requests:    4000,
			Warmup:      200,
			Prepopulate: 8,
			Seed:        1,
		},
		{
			Name:        "cinder-open-loop",
			Description: "fixed 500 req/s arrival rate — latency includes queueing (no coordinated omission)",
			Mix: []OpSpec{
				{Op: OpGetVolume, Role: RoleMember, Weight: 8},
				{Op: OpCreateVolume, Role: RoleAdmin, Weight: 1},
				{Op: OpDeleteVolume, Role: RoleAdmin, Weight: 1},
			},
			Clients:     32,
			Requests:    2000,
			Warmup:      100,
			Rate:        500,
			Prepopulate: 16,
			Seed:        1,
		},
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup finds a named scenario.
func Lookup(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	names := make([]string, 0)
	for _, sc := range Scenarios() {
		names = append(names, sc.Name)
	}
	return Scenario{}, fmt.Errorf("loadgen: unknown scenario %q (have %v)", name, names)
}
