// Command mutantlab reproduces the paper's validation experiments:
//
//	mutantlab            run the full mutant campaign and print the kill matrix
//	mutantlab -paper     run only the paper's three mutants (Section VI.D)
//	mutantlab -compiler  run the OCL-compiler mutation campaign (seeded
//	                     semantic faults vs the tree-walking reference)
//	mutantlab -table1    print Table I (security requirements) as generated
//	mutantlab -listing1  print the DELETE(volume) contract (Listing 1)
//	mutantlab -coverage  print SecReq coverage of the standard request matrix
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"cloudmon/internal/contract"
	"cloudmon/internal/mbt"
	"cloudmon/internal/monitor"
	"cloudmon/internal/mutation"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mutantlab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mutantlab", flag.ContinueOnError)
	paperOnly := fs.Bool("paper", false, "run only the paper's three mutants")
	ablation := fs.Bool("ablation", false, "also run the pre-only monitor ablation and compare kill rates")
	mbtSuite := fs.Bool("mbt", false, "run the model-based-testing suite generated from the behavioral model and exit")
	novaCampaign := fs.Bool("nova", false, "run the compute-service (Nova model) mutant campaign and exit")
	compiler := fs.Bool("compiler", false, "run the OCL-compiler mutation campaign and exit")
	jsonOut := fs.Bool("json", false, "emit the kill matrix as JSON instead of a table")
	table1 := fs.Bool("table1", false, "print Table I and exit")
	listing1 := fs.Bool("listing1", false, "print the DELETE(volume) contract and exit")
	coverage := fs.Bool("coverage", false, "print SecReq coverage of the request matrix and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *table1 {
		printTableI()
		return nil
	}
	if *listing1 {
		return printListing1()
	}
	if *coverage {
		return printCoverage()
	}
	if *mbtSuite {
		return runMBTSuite()
	}
	if *compiler {
		return runCompilerCampaign(*jsonOut)
	}
	emit := func(report *mutation.CampaignReport) error {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(report)
		}
		report.Format(os.Stdout)
		return nil
	}
	if *novaCampaign {
		if !*jsonOut {
			fmt.Println("running compute-service (Nova model) mutant campaign")
			fmt.Println()
		}
		report, err := mutation.RunNovaCampaign(mutation.NovaCatalogue())
		if err != nil {
			return err
		}
		return emit(report)
	}

	mutants := mutation.Catalogue()
	if *paperOnly {
		mutants = mutation.PaperMutants()
	}
	if !*jsonOut {
		fmt.Printf("running mutation campaign: %d mutants, fresh cloud + monitor per run\n\n", len(mutants))
	}
	report, err := mutation.RunCampaign(mutants)
	if err != nil {
		return err
	}
	if err := emit(report); err != nil {
		return err
	}
	if *ablation {
		fmt.Println("\n--- ablation: pre-only monitor (no post-condition checks) ---")
		pre, err := mutation.RunCampaignWithOptions(mutants, mutation.LabOptions{
			Level: monitor.CheckPreOnly,
		})
		if err != nil {
			return err
		}
		pre.Format(os.Stdout)
		fmt.Printf("\nablation delta: full kills %d/%d, pre-only kills %d/%d — "+
			"the difference is exactly the lost-effect mutants only post-conditions can see\n",
			report.Killed(), len(report.Runs), pre.Killed(), len(pre.Runs))
	}
	return nil
}

// runCompilerCampaign runs the seeded-fault campaign against the compiled
// OCL engine: every clause of the Cinder contract set plus the synthetic
// differential corpus, each mutant judged against the tree walk.
func runCompilerCampaign(jsonOut bool) error {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		return err
	}
	report, err := contract.RunCompilerCampaign(set)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	fmt.Printf("running compiler mutation campaign: %d seeded faults over the Cinder contract set\n\n",
		len(contract.CompilerMutants()))
	report.Format(os.Stdout)
	return nil
}

// printTableI regenerates the paper's Table I from the fixture.
func printTableI() {
	fmt.Println("TABLE I: SECURITY REQUIREMENTS FOR CINDER API (EXCERPT)")
	fmt.Printf("%-10s %-8s %-8s %-8s %s\n", "Resource", "SecReq", "Request", "Role", "UserGroup")
	for _, row := range paper.TableI() {
		roles := make([]string, 0, len(row.Roles))
		for role := range row.Roles {
			roles = append(roles, role)
		}
		sort.Strings(roles)
		first := true
		for _, role := range roles {
			if first {
				fmt.Printf("%-10s %-8s %-8s %-8s %s\n",
					row.Resource, row.SecReq, row.Request, role, row.Roles[role])
				first = false
			} else {
				fmt.Printf("%-10s %-8s %-8s %-8s %s\n", "", "", "", role, row.Roles[role])
			}
		}
	}
}

// printListing1 regenerates the paper's Listing 1.
func printListing1() error {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		return err
	}
	c, ok := set.For(uml.Trigger{Method: uml.DELETE, Resource: "volume"})
	if !ok {
		return fmt.Errorf("no DELETE(volume) contract")
	}
	fmt.Print(contract.RenderListing(c, contract.StylePaper))
	return nil
}

// runMBTSuite generates a test suite from the behavioral model and runs it
// against a clean deployment, using the monitor as the oracle.
func runMBTSuite() error {
	suite, err := mbt.Generate(paper.CinderBehavioralModel(),
		[]string{paper.RoleAdmin, paper.RoleMember, paper.RoleUser})
	if err != nil {
		return err
	}
	fmt.Printf("generated %d cases from the behavioral model\n\n", len(suite.Cases))
	ex := mutation.NewModelExecutor(nil)
	res, err := mbt.Run(suite, ex)
	if err != nil {
		return err
	}
	res.Format(os.Stdout)
	fmt.Printf("monitor violations during the run: %d (expected 0 on a clean cloud)\n",
		ex.Violations())
	return nil
}

// printCoverage runs the standard request matrix on a clean deployment and
// prints per-SecReq hit counts.
func printCoverage() error {
	lab, err := mutation.NewLab()
	if err != nil {
		return err
	}
	requests := lab.RunMatrix()
	cov := lab.Sys.Monitor.Coverage()
	violations := 0
	for outcome, n := range lab.Sys.Monitor.Outcomes() {
		if outcome.IsViolation() {
			violations += n
		}
	}
	reqs := make([]string, 0, len(cov))
	for s := range cov {
		reqs = append(reqs, s)
	}
	sort.Strings(reqs)
	fmt.Printf("request matrix: %d requests, %d violations (expected 0)\n",
		requests, violations)
	fmt.Println("security-requirement coverage:")
	for _, s := range reqs {
		fmt.Printf("  SecReq %-5s exercised %d times\n", s, cov[s])
	}
	return nil
}
