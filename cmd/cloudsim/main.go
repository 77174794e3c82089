// Command cloudsim runs the simulated OpenStack private cloud (keystone +
// cinder + nova) and seeds it with the paper's example deployment: project
// myProject, three user groups holding the Table-I roles, and a volume
// quota.
//
//	cloudsim -addr :8776 -quota 10
//
// With -faults the cloud is wrapped in the fault-injection middleware, so
// a monitor (its read retries and its fail policy) can be exercised
// against a misbehaving cloud over real sockets:
//
//	cloudsim -addr :8776 -faults chaos.json
//
// Credentials printed at startup can be used with cURL exactly as in the
// paper's workflow, e.g.:
//
//	curl -X DELETE -H "X-Auth-Token: $TOK" \
//	    http://127.0.0.1:8776/volume/v3/$PROJECT/volumes/$VOL
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"

	"cloudmon/internal/faults"
	"cloudmon/internal/obs"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/paper"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cloudsim:", err)
		os.Exit(1)
	}
}

// buildCloud provisions the example deployment with the given volume
// quota and returns the cloud plus the seeded identifiers.
func buildCloud(quota int) (*openstack.Cloud, openstack.SeedResult) {
	cloud := openstack.New(openstack.Config{})
	res := cloud.ApplySeed(openstack.Seed{
		ProjectName: "myProject",
		Quota:       cinder.QuotaSet{Volumes: quota, Gigabytes: 100 * quota},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw-alice", Group: paper.GroupProjAdministrator},
			{Name: "bob", Password: "pw-bob", Group: paper.GroupServiceArchitect},
			{Name: "carol", Password: "pw-carol", Group: paper.GroupBusinessAnalyst},
			{Name: "cm-svc", Password: "pw-svc", Group: paper.GroupProjAdministrator},
		},
	})
	return cloud, res
}

func run(args []string) error {
	fs := flag.NewFlagSet("cloudsim", flag.ContinueOnError)
	addr := fs.String("addr", ":8776", "listen address")
	quota := fs.Int("quota", 10, "volume quota for the seeded project")
	faultsPath := fs.String("faults", "", "fault-injection profile (JSON, see internal/faults)")
	metricsAddr := fs.String("metrics-addr", "", "optional listen address for the Prometheus-text /metrics endpoint")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cloud, res := buildCloud(*quota)
	var handler http.Handler = cloud
	var injector *faults.Injector
	if *faultsPath != "" {
		profile, err := faults.LoadProfile(*faultsPath)
		if err != nil {
			return err
		}
		injector = faults.NewInjector(profile)
		handler = injector.Middleware(cloud)
		fmt.Printf("fault injection enabled: %d rules, seed %d (%s)\n",
			len(profile.Rules), profile.Seed, *faultsPath)
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = &obs.Registry{}
		hm := obs.NewHTTPMetrics()
		handler = hm.Wrap(handler)
		hm.Register(reg, "cloudsim")
		if injector != nil {
			reg.Collect(func(w *obs.MetricsWriter) {
				counts := injector.Counts()
				kinds := make([]string, 0, len(counts))
				for k := range counts {
					kinds = append(kinds, k)
				}
				sort.Strings(kinds)
				for _, k := range kinds {
					w.Counter("cloudsim_injected_faults_total",
						"Fault-injection rules fired, by kind.",
						float64(counts[k]), obs.L("kind", k))
				}
			})
		}
	}

	fmt.Printf("simulated OpenStack cloud on %s\n", *addr)
	fmt.Printf("  project myProject: %s (volume quota %d)\n", res.ProjectID, *quota)
	fmt.Println("  users (password = pw-<name>):")
	fmt.Println("    alice  proj_administrator -> role admin")
	fmt.Println("    bob    service_architect  -> role member")
	fmt.Println("    carol  business_analyst   -> role user")
	fmt.Println("    cm-svc proj_administrator -> monitor service account")
	fmt.Println("  services: /identity/v3, /volume/v3, /compute/v2.1")

	if reg != nil {
		fmt.Printf("  metrics on %s/metrics\n", *metricsAddr)
		errCh := make(chan error, 1)
		go func() {
			mux := http.NewServeMux()
			mux.Handle("/metrics", reg.Handler())
			errCh <- http.ListenAndServe(*metricsAddr, mux)
		}()
		go func() {
			errCh <- http.ListenAndServe(*addr, handler)
		}()
		return <-errCh
	}
	return http.ListenAndServe(*addr, handler)
}
