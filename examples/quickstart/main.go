// Quickstart: the whole pipeline in one process.
//
//	go run ./examples/quickstart
//
// It builds the paper's Cinder design model, generates the method
// contracts, boots the simulated OpenStack cloud, puts the cloud monitor
// in front of it, and issues a handful of requests — one permitted, one
// forbidden by role, one forbidden by state — printing the monitor's
// verdicts.
package main

import (
	"fmt"
	"log"
	"net/http"

	"cloudmon/internal/contract"
	"cloudmon/internal/core"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/osbinding"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. The design models (Figure 3 of the paper).
	model := paper.CinderModel()
	fmt.Printf("model %q: %d resources, %d states, %d transitions\n",
		model.Resource.Name,
		len(model.Resource.Resources),
		len(model.Behavioral.States),
		len(model.Behavioral.Transitions))

	// 2. Contract generation (Section V).
	set, err := contract.Generate(model)
	if err != nil {
		return err
	}
	del, _ := set.For(uml.Trigger{Method: uml.DELETE, Resource: "volume"})
	fmt.Printf("generated %d contracts; DELETE(volume) pre-condition:\n  %s\n\n",
		len(set.Contracts), del.Pre)

	// 3. A simulated private cloud with the Table-I deployment.
	cloud := openstack.New(openstack.Config{})
	seed := cloud.ApplySeed(openstack.Seed{
		ProjectName: "myProject",
		Quota:       cinder.QuotaSet{Volumes: 2, Gigabytes: 100},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw-alice", Group: paper.GroupProjAdministrator},
			{Name: "bob", Password: "pw-bob", Group: paper.GroupServiceArchitect},
			{Name: "cm-svc", Password: "pw-svc", Group: paper.GroupProjAdministrator},
		},
	})

	// 4. The cloud monitor, wired in process (no sockets needed).
	sys, err := core.Build(core.Options{
		Model:    model,
		CloudURL: "http://cloud.internal",
		ServiceAccount: osbinding.ServiceAccount{
			User: "cm-svc", Password: "pw-svc", ProjectID: seed.ProjectID,
		},
		Mode:       monitor.Enforce,
		HTTPClient: httpkit.HandlerClient(cloud),
		// The monitor counts verdicts but keeps none: a deployment sees
		// each one through this hook (cloudmon -log-file writes them as
		// NDJSON), and every non-OK one in its audit trail.
		OnVerdict: func(v monitor.Verdict) {
			fmt.Printf("  monitor: %-16s %-28s pre=%-5v forwarded=%-5v backend=%d\n",
				v.Trigger, v.Outcome, v.PreOK, v.Forwarded, v.BackendStatus)
		},
	})
	if err != nil {
		return err
	}

	// 5. Drive requests through the monitor.
	cloudClient := osclient.New("http://cloud.internal")
	cloudClient.HTTPClient = httpkit.HandlerClient(cloud)
	monClient := osclient.New("http://monitor.internal")
	monClient.HTTPClient = httpkit.HandlerClient(sys.Monitor)

	adminTok, err := (&osclient.Client{
		BaseURL: cloudClient.BaseURL, HTTPClient: cloudClient.HTTPClient,
	}).Authenticate("alice", "pw-alice", seed.ProjectID)
	if err != nil {
		return err
	}
	memberTok, err := (&osclient.Client{
		BaseURL: cloudClient.BaseURL, HTTPClient: cloudClient.HTTPClient,
	}).Authenticate("bob", "pw-bob", seed.ProjectID)
	if err != nil {
		return err
	}
	admin := monClient.WithToken(adminTok)
	member := monClient.WithToken(memberTok)
	volumes := "/projects/" + seed.ProjectID + "/volumes"

	// A permitted POST by the administrator.
	var created struct {
		Volume cinder.Volume `json:"volume"`
	}
	in := map[string]map[string]any{"volume": {"name": "data", "size": 10}}
	status, err := admin.Do(http.MethodPost, volumes, in, &created, nil)
	fmt.Printf("admin POST volume      -> %d (err=%v)\n", status, err)

	// A DELETE forbidden by role: the member is blocked by the monitor.
	status, _ = member.Do(http.MethodDelete, volumes+"/"+created.Volume.ID, nil, nil, nil)
	fmt.Printf("member DELETE volume   -> %d (blocked by contract)\n", status)

	// A permitted DELETE by the administrator.
	status, err = admin.Do(http.MethodDelete, volumes+"/"+created.Volume.ID, nil, nil, nil)
	fmt.Printf("admin DELETE volume    -> %d (err=%v)\n", status, err)

	// A DELETE on a nonexistent volume: forbidden by state.
	status, _ = admin.Do(http.MethodDelete, volumes+"/ghost", nil, nil, nil)
	fmt.Printf("admin DELETE ghost     -> %d (blocked by contract)\n", status)

	// 6. Inspect the monitor's SecReq coverage.
	fmt.Println("\nsecurity-requirement coverage:")
	for _, s := range sys.Contracts.SecReqs() {
		fmt.Printf("  SecReq %s: %d\n", s, sys.Monitor.Coverage()[s])
	}
	return nil
}
