// The paper's full case study (Sections II, IV and VI.D): a Cinder volume
// API monitored for the Table-I security requirements, exercised across
// roles and stateful scenarios — quota exhaustion and deletion of an
// attached (in-use) volume.
//
//	go run ./examples/cinder-volumes
package main

import (
	"fmt"
	"log"
	"net/http"

	"cloudmon/internal/core"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/osbinding"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
)

// deployment bundles the wired-up scenario.
type deployment struct {
	cloud     *openstack.Cloud
	sys       *core.System
	projectID string
	clients   map[string]*osclient.Client // role -> monitor client
	direct    *osclient.Client            // admin client straight to the cloud
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func newDeployment() (*deployment, error) {
	cloud := openstack.New(openstack.Config{})
	seed := cloud.ApplySeed(openstack.Seed{
		ProjectName: "myProject",
		Quota:       cinder.QuotaSet{Volumes: 3, Gigabytes: 100},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw-alice", Group: paper.GroupProjAdministrator},
			{Name: "bob", Password: "pw-bob", Group: paper.GroupServiceArchitect},
			{Name: "carol", Password: "pw-carol", Group: paper.GroupBusinessAnalyst},
			{Name: "cm-svc", Password: "pw-svc", Group: paper.GroupProjAdministrator},
		},
	})
	cloudHTTP := httpkit.HandlerClient(cloud)
	sys, err := core.Build(core.Options{
		Model:    paper.CinderModel(),
		CloudURL: "http://cloud.internal",
		ServiceAccount: osbinding.ServiceAccount{
			User: "cm-svc", Password: "pw-svc", ProjectID: seed.ProjectID,
		},
		Mode:       monitor.Enforce,
		HTTPClient: cloudHTTP,
	})
	if err != nil {
		return nil, err
	}
	d := &deployment{
		cloud:     cloud,
		sys:       sys,
		projectID: seed.ProjectID,
		clients:   make(map[string]*osclient.Client, 3),
	}
	monHTTP := httpkit.HandlerClient(sys.Monitor)
	for user, role := range map[string]string{
		"alice": paper.RoleAdmin, "bob": paper.RoleMember, "carol": paper.RoleUser,
	} {
		auth := osclient.Client{BaseURL: "http://cloud.internal", HTTPClient: cloudHTTP}
		tok, err := auth.Authenticate(user, "pw-"+user, seed.ProjectID)
		if err != nil {
			return nil, err
		}
		mc := osclient.New("http://monitor.internal")
		mc.HTTPClient = monHTTP
		d.clients[role] = mc.WithToken(tok)
		if role == paper.RoleAdmin {
			dc := osclient.New("http://cloud.internal")
			dc.HTTPClient = cloudHTTP
			d.direct = dc.WithToken(tok)
		}
	}
	return d, nil
}

func (d *deployment) volumes() string { return "/projects/" + d.projectID + "/volumes" }

func (d *deployment) request(role, method, path string, body any) int {
	status, _ := d.clients[role].Do(method, path, body, nil, nil)
	return status
}

func (d *deployment) create(role, name string) (string, int) {
	var out struct {
		Volume cinder.Volume `json:"volume"`
	}
	in := map[string]map[string]any{"volume": {"name": name, "size": 5}}
	status, err := d.clients[role].Do(http.MethodPost, d.volumes(), in, &out, nil)
	if err != nil {
		return "", status
	}
	return out.Volume.ID, status
}

func run() error {
	d, err := newDeployment()
	if err != nil {
		return err
	}
	fmt.Println("=== Table I: role-by-role authorization through the monitor ===")

	// SecReq 1.3 — POST.
	vol, status := d.create(paper.RoleAdmin, "admin-vol")
	fmt.Printf("POST   as admin  -> %d (SecReq 1.3: permitted)\n", status)
	_, status = d.create(paper.RoleMember, "member-vol")
	fmt.Printf("POST   as member -> %d (SecReq 1.3: permitted)\n", status)
	_, status = d.create(paper.RoleUser, "user-vol")
	fmt.Printf("POST   as user   -> %d (SecReq 1.3: blocked by monitor)\n", status)

	// SecReq 1.1 — GET for everyone.
	for _, role := range []string{paper.RoleAdmin, paper.RoleMember, paper.RoleUser} {
		status = d.request(role, http.MethodGet, d.volumes()+"/"+vol, nil)
		fmt.Printf("GET    as %-6s -> %d (SecReq 1.1: permitted)\n", role, status)
	}

	// SecReq 1.2 — PUT for admin and member.
	in := map[string]map[string]any{"volume": {"name": "renamed"}}
	status = d.request(paper.RoleMember, http.MethodPut, d.volumes()+"/"+vol, in)
	fmt.Printf("PUT    as member -> %d (SecReq 1.2: permitted)\n", status)
	status = d.request(paper.RoleUser, http.MethodPut, d.volumes()+"/"+vol, in)
	fmt.Printf("PUT    as user   -> %d (SecReq 1.2: blocked by monitor)\n", status)

	// SecReq 1.4 — DELETE only for admin.
	status = d.request(paper.RoleMember, http.MethodDelete, d.volumes()+"/"+vol, nil)
	fmt.Printf("DELETE as member -> %d (SecReq 1.4: blocked by monitor)\n", status)

	fmt.Println("\n=== Stateful scenarios from the behavioral model ===")

	// Quota exhaustion: third create fills the quota, fourth is blocked.
	_, status = d.create(paper.RoleAdmin, "third")
	fmt.Printf("POST #3 (fills quota)        -> %d\n", status)
	_, status = d.create(paper.RoleAdmin, "overflow")
	fmt.Printf("POST #4 (over quota)         -> %d (blocked: full-quota state)\n", status)

	// In-use volume: attach via nova, then DELETE is blocked by the guard
	// volume.status <> 'in-use'.
	server, _, err := d.direct.CreateServer(d.projectID, "web")
	if err != nil {
		return err
	}
	if _, err := d.direct.AttachVolume(d.projectID, server.ID, vol); err != nil {
		return err
	}
	status = d.request(paper.RoleAdmin, http.MethodDelete, d.volumes()+"/"+vol, nil)
	fmt.Printf("DELETE in-use volume         -> %d (blocked: status guard)\n", status)
	if _, err := d.direct.DetachVolume(d.projectID, server.ID, vol); err != nil {
		return err
	}
	status = d.request(paper.RoleAdmin, http.MethodDelete, d.volumes()+"/"+vol, nil)
	fmt.Printf("DELETE after detach          -> %d (permitted)\n", status)

	fmt.Println("\n=== Monitor summary ===")
	outcomes := d.sys.Monitor.Outcomes()
	violations := 0
	for outcome, n := range outcomes {
		if outcome.IsViolation() {
			violations += n
		}
	}
	fmt.Printf("verdicts: ok=%d blocked=%d violations=%d\n",
		outcomes[monitor.OK], outcomes[monitor.Blocked], violations)
	fmt.Println("security-requirement coverage (Section IV.C traceability):")
	for _, s := range d.sys.Contracts.SecReqs() {
		fmt.Printf("  SecReq %s exercised %d times\n", s, d.sys.Monitor.Coverage()[s])
	}
	return nil
}
