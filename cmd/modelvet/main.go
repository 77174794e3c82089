// Command modelvet statically analyzes design models before any monitor
// code is generated. It runs the multi-pass analyzer of internal/analysis
// over a model read from XMI (the same input uml2go consumes) or over one
// of the bundled paper models, and prints one diagnostic per line:
//
//	modelvet diagrams.xmi
//	modelvet -example cinder
//	modelvet -json -secreqs 1.1,1.2 diagrams.xmi
//
// Flags:
//
//	-json           render the report as JSON instead of text
//	-secreqs TAGS   comma-separated security-requirement tags that must
//	                trace to at least one transition (MV402)
//	-passes NAMES   comma-separated pass names to run (default: all)
//	-example NAME   analyze a bundled model instead of an XMI file:
//	                cinder, nova, or cinder-secreq-1.4
//	-list-passes    print the registered passes and their codes, then exit
//	-facts          additionally print the compile-time clause facts the
//	                symbolic pass proved per contract (fold rewrites, static
//	                disjuncts, subsumed disjuncts, vacuous post implications,
//	                dead paths), after machine-checking each facts artifact
//	-compiled       additionally print each contract's compiled artifact
//	                (state-path slot table, program counts, iterator
//	                registers) — what the monitor executes
//
// Exit status: 0 when the model is clean or carries only warnings and
// infos, 1 when any error-severity diagnostic is reported, 2 on usage or
// input errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cloudmon/internal/analysis"
	"cloudmon/internal/contract"
	"cloudmon/internal/paper"
	"cloudmon/internal/slice"
	"cloudmon/internal/uml"
	"cloudmon/internal/xmi"
)

func main() {
	failed, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "modelvet:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// run executes the analysis and reports whether it found errors.
func run(args []string, out io.Writer) (failed bool, err error) {
	fs := flag.NewFlagSet("modelvet", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "render the report as JSON")
	secreqs := fs.String("secreqs", "", "comma-separated required security-requirement tags")
	passes := fs.String("passes", "", "comma-separated pass names to run (default: all)")
	example := fs.String("example", "", "analyze a bundled model: cinder, nova, cinder-secreq-1.4")
	listPasses := fs.Bool("list-passes", false, "print the registered passes and exit")
	facts := fs.Bool("facts", false, "print the compile-time clause facts per contract")
	compiled := fs.Bool("compiled", false, "print each contract's compiled artifact summary")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *listPasses {
		for _, p := range analysis.Passes() {
			fmt.Fprintf(out, "%-16s %s  [%s]\n", p.Name, p.Doc, strings.Join(p.Codes, " "))
		}
		return false, nil
	}

	model, err := loadModel(fs, *example)
	if err != nil {
		return false, err
	}

	cfg := analysis.Config{
		RequiredSecReqs: splitList(*secreqs),
		Passes:          splitList(*passes),
	}
	// A typo'd pass name would silently select nothing and report the
	// model clean — reject it instead.
	registered := make(map[string]bool)
	for _, p := range analysis.Passes() {
		registered[p.Name] = true
	}
	for _, name := range cfg.Passes {
		if !registered[name] {
			return false, fmt.Errorf("unknown pass %q (see -list-passes)", name)
		}
	}
	report := analysis.Analyze(model, cfg)

	if *asJSON {
		s, err := report.RenderJSON()
		if err != nil {
			return false, err
		}
		fmt.Fprint(out, s)
	} else {
		fmt.Fprint(out, report.Render())
	}
	failed = report.HasErrors()

	if *facts || *compiled {
		set, err := contract.Generate(model)
		if err != nil {
			// The report above already explains why the model cannot
			// generate; there is nothing to print.
			fmt.Fprintf(out, "contracts not generated: %v\n", err)
			return true, nil
		}
		if *facts {
			// Machine-check every artifact before presenting it as proven.
			for _, c := range set.Contracts {
				if f := c.Plan().Facts; f != nil {
					if err := f.Check(c); err != nil {
						fmt.Fprintf(out, "facts: %s: CHECK FAILED: %v\n", c.Trigger, err)
						failed = true
					}
				}
			}
			fmt.Fprint(out, contract.RenderFacts(set))
		}
		if *compiled {
			fmt.Fprint(out, contract.RenderCompiled(set))
		}
	}
	return failed, nil
}

// loadModel resolves the -example shorthand or reads the XMI argument.
func loadModel(fs *flag.FlagSet, example string) (*uml.Model, error) {
	if example != "" {
		if fs.NArg() != 0 {
			return nil, fmt.Errorf("-example and an XMI path are mutually exclusive")
		}
		switch example {
		case "cinder":
			return paper.CinderModel(), nil
		case "nova":
			return paper.NovaModel(), nil
		case "cinder-secreq-1.4":
			return slice.Model(paper.CinderModel(), slice.BySecReqs("1.4"))
		}
		return nil, fmt.Errorf("unknown example %q (want cinder, nova, or cinder-secreq-1.4)", example)
	}
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("usage: modelvet [flags] DiagramsFile.xmi")
	}
	return xmi.ReadFile(fs.Arg(0))
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}
