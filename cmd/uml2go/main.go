// Command uml2go generates a runnable cloud monitor from design models,
// mirroring the paper's invocation:
//
//	uml2go ProjectName DiagramsFile.xmi
//
// The output is a Go module (go.mod, model.xmi, contracts.go, main.go)
// whose binary runs cloudmon's pipeline and command line on the model. It
// builds against the cloudmon checkout uml2go runs in, found from the
// working directory as the go tool finds a module root, so uml2go must
// run inside a checkout:
//
//	uml2go ProjectName DiagramsFile.xmi && cd ProjectName && go build
//
// Flags:
//
//	-out DIR     output directory (default: ./<ProjectName>)
//	-contracts   also print the generated contracts (Listing-1 format)
//	-lenient     generate even when static analysis reports errors
//	-dot PATH    also write a Graphviz rendering of the models
//	-emit-example PATH  write the bundled Cinder example model as XMI and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"cloudmon/internal/codegen"
	"cloudmon/internal/contract"
	"cloudmon/internal/paper"
	"cloudmon/internal/xmi"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "uml2go:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("uml2go", flag.ContinueOnError)
	out := fs.String("out", "", "output directory (default ./<ProjectName>)")
	printContracts := fs.Bool("contracts", false, "print generated contracts")
	emitExample := fs.String("emit-example", "", "write the bundled Cinder example model as XMI to PATH and exit")
	lenient := fs.Bool("lenient", false, "generate even when static analysis (modelvet) reports errors")
	dotPath := fs.String("dot", "", "also write a Graphviz rendering of the models to PATH")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *emitExample != "" {
		if err := xmi.WriteFile(*emitExample, paper.CinderModel()); err != nil {
			return err
		}
		fmt.Printf("wrote example Cinder model to %s\n", *emitExample)
		return nil
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: uml2go [flags] ProjectName DiagramsFile.xmi")
	}
	project, xmiPath := fs.Arg(0), fs.Arg(1)

	runtime, err := codegen.FindRuntime(".")
	if err != nil {
		return err
	}
	model, err := xmi.ReadFile(xmiPath)
	if err != nil {
		return err
	}
	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(model.Dot()), 0o644); err != nil {
			return fmt.Errorf("write dot file: %w", err)
		}
		fmt.Printf("wrote Graphviz rendering to %s\n", *dotPath)
	}
	res, err := codegen.Generate(model, codegen.Options{
		Project:     project,
		Runtime:     runtime,
		Lenient:     *lenient,
		AnalysisLog: os.Stderr,
	})
	if err != nil {
		return err
	}
	dir := *out
	if dir == "" {
		dir = project
	}
	if err := codegen.WriteFiles(dir, res.Files); err != nil {
		return err
	}
	names := make([]string, 0, len(res.Files))
	for name := range res.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("generated %d files in %s:\n", len(names), dir)
	for _, name := range names {
		fmt.Printf("  %s (%d bytes)\n", name, len(res.Files[name]))
	}
	if *printContracts {
		fmt.Println()
		fmt.Print(contract.RenderSet(res.Contracts, contract.StyleConjunction))
	}
	return nil
}
