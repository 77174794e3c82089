package mutation

import (
	"fmt"
	"net/http"

	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/nova"
	"cloudmon/internal/paper"
)

// This file extends the validation to the compute service: the same
// campaign design (inject faults into the cloud, drive a matrix through
// the monitor, count kills) applied to the Nova server model — evidence
// that the approach generalizes beyond the paper's Cinder case study.

// NovaCatalogue returns authorization mutants for the compute service.
func NovaCatalogue() []Mutant {
	novaPolicyMutant := func(id, name, desc, action, rule string) Mutant {
		return Mutant{
			ID: id, Name: name, Description: desc, Kind: KindAuthorization,
			Apply: func(c *openstack.Cloud) error {
				p := c.Compute.Policy().Clone()
				if err := p.SetRule(action, rule); err != nil {
					return fmt.Errorf("mutation %s: %w", id, err)
				}
				c.Compute.SetPolicy(p)
				return nil
			},
		}
	}
	return []Mutant{
		novaPolicyMutant("N1", "server-delete-allows-member",
			"the compute DELETE policy wrongly grants the member role",
			nova.ActionDelete, "role:admin or role:member"),
		novaPolicyMutant("N2", "server-get-denies-user",
			"the compute GET policy wrongly drops the user role",
			nova.ActionGet, "role:admin or role:member"),
		novaPolicyMutant("N3", "server-create-allows-user",
			"the compute POST policy wrongly grants the user role",
			nova.ActionCreate, "role:admin or role:member or role:user"),
		novaPolicyMutant("N4", "server-delete-denies-admin",
			"a role-name typo denies server DELETE even to administrators",
			nova.ActionDelete, "role:adm1n"),
	}
}

// NovaLab is the compute-service twin of Lab: a fresh cloud monitored by
// contracts generated from the Nova server model.
type NovaLab struct {
	*labEnv
	created []string
}

// NewNovaLab builds the compute-model deployment.
func NewNovaLab() (*NovaLab, error) {
	env, err := newLabEnv(paper.NovaModel(), openstack.Seed{}, 0, nil)
	if err != nil {
		return nil, err
	}
	return &NovaLab{labEnv: env}, nil
}

func (l *NovaLab) serversPath() string {
	return "/projects/" + l.ProjectID + "/servers"
}

func (l *NovaLab) post(role string) string {
	l.requests++
	var out struct {
		Server nova.Server `json:"server"`
	}
	in := map[string]map[string]string{"server": {"name": "srv"}}
	if _, err := l.as(role).Do(http.MethodPost, l.serversPath(), in, &out, nil); err != nil {
		return ""
	}
	l.created = append(l.created, out.Server.ID)
	return out.Server.ID
}

func (l *NovaLab) get(role, id string) {
	l.requests++
	_, _ = l.as(role).Do(http.MethodGet, l.serversPath()+"/"+id, nil, nil, nil)
}

func (l *NovaLab) del(role, id string) {
	l.requests++
	_, _ = l.as(role).Do(http.MethodDelete, l.serversPath()+"/"+id, nil, nil, nil)
}

// RunMatrix drives the compute request matrix: creation by each role,
// reads by each role, forbidden deletions, then cleanup by the admin.
func (l *NovaLab) RunMatrix() int {
	before := l.requests
	s1 := l.post(paper.RoleAdmin)
	l.post(paper.RoleMember)
	l.post(paper.RoleUser) // forbidden

	target := s1
	if target == "" {
		target = "missing-server"
	}
	for _, role := range []string{paper.RoleAdmin, paper.RoleMember, paper.RoleUser} {
		l.get(role, target)
	}
	l.del(paper.RoleMember, target) // forbidden
	l.del(paper.RoleUser, target)   // forbidden
	for _, id := range l.created {
		if id != "" {
			l.del(paper.RoleAdmin, id)
		}
	}
	return l.requests - before
}

// RunNovaCampaign executes the compute matrix against a clean deployment
// and one fresh deployment per mutant.
func RunNovaCampaign(mutants []Mutant) (*CampaignReport, error) {
	return runCampaign(mutants, func() (campaignLab, error) { return NewNovaLab() })
}
