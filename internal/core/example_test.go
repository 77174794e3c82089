package core_test

import (
	"fmt"
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

// Example wires the full pipeline in process: the paper's Cinder model is
// compiled into contracts, a simulated cloud is seeded, and the resulting
// monitor blocks a member's DELETE while passing the administrator's.
func Example() {
	cloud := openstack.New(openstack.Config{})
	seed := cloud.ApplySeed(openstack.Seed{
		ProjectName: "myProject",
		Quota:       cinder.QuotaSet{Volumes: 3, Gigabytes: 100},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw-alice", Group: paper.GroupProjAdministrator},
			{Name: "bob", Password: "pw-bob", Group: paper.GroupServiceArchitect},
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
		fmt.Println("build:", err)
		return
	}

	login := func(user string) *osclient.Client {
		auth := osclient.Client{BaseURL: "http://cloud.internal", HTTPClient: cloudHTTP}
		tok, err := auth.Authenticate(user, "pw-"+user, seed.ProjectID)
		if err != nil {
			fmt.Println("auth:", err)
			return nil
		}
		c := osclient.New("http://monitor.internal").WithToken(tok)
		c.HTTPClient = httpkit.HandlerClient(sys.Monitor)
		return c
	}
	admin, member := login("alice"), login("bob")
	volumes := "/projects/" + seed.ProjectID + "/volumes"

	var created struct {
		Volume cinder.Volume `json:"volume"`
	}
	in := map[string]map[string]any{"volume": {"name": "data", "size": 5}}
	status, _ := admin.Do(http.MethodPost, volumes, in, &created, nil)
	fmt.Println("admin POST:", status)

	status, _ = member.Do(http.MethodDelete, volumes+"/"+created.Volume.ID, nil, nil, nil)
	fmt.Println("member DELETE:", status)

	status, _ = admin.Do(http.MethodDelete, volumes+"/"+created.Volume.ID, nil, nil, nil)
	fmt.Println("admin DELETE:", status)

	violations := 0
	for outcome, n := range sys.Monitor.Outcomes() {
		if outcome.IsViolation() {
			violations += n
		}
	}
	fmt.Println("violations:", violations)
	// Output:
	// admin POST: 202
	// member DELETE: 412
	// admin DELETE: 204
	// violations: 0
}
