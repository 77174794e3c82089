// uml2go end to end: export the paper's models as XMI (the MagicDraw step
// of the paper's toolchain), read the XMI back, and generate the runnable
// monitor — go.mod, model.xmi, contracts.go and main.go over cloudmon's
// pipeline — into a temporary directory. Run it from the checkout, which
// the generated module builds against:
//
//	go run ./examples/codegen
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"cloudmon/internal/codegen"
	"cloudmon/internal/paper"
	"cloudmon/internal/xmi"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "uml2go-example")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// 1. The analyst exports the diagrams as XMI.
	xmiPath := filepath.Join(dir, "cinder.xmi")
	if err := xmi.WriteFile(xmiPath, paper.CinderModel()); err != nil {
		return err
	}
	info, err := os.Stat(xmiPath)
	if err != nil {
		return err
	}
	fmt.Printf("exported design models to %s (%d bytes)\n", xmiPath, info.Size())

	// 2. uml2go consumes the XMI and generates against this checkout.
	model, err := xmi.ReadFile(xmiPath)
	if err != nil {
		return err
	}
	runtime, err := codegen.FindRuntime(".")
	if err != nil {
		return err
	}
	res, err := codegen.Generate(model, codegen.Options{Project: "cindermon", Runtime: runtime})
	if err != nil {
		return err
	}
	outDir := filepath.Join(dir, "cindermon")
	if err := codegen.WriteFiles(outDir, res.Files); err != nil {
		return err
	}

	names := make([]string, 0, len(res.Files))
	for name := range res.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("generated monitor (%d files):\n", len(names))
	for _, name := range names {
		fmt.Printf("  %-13s %5d bytes\n", name, len(res.Files[name]))
	}

	// 3. Show the contracts with their URI table (the urls.py analogue)
	// and the entry point that runs cloudmon's pipeline on the model.
	for _, name := range []string{"contracts.go", "main.go"} {
		fmt.Printf("\n--- %s ---\n", name)
		fmt.Print(string(res.Files[name]))
	}
	return nil
}
