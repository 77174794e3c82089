// Package codegen implements uml2go, the paper's uml2django analogue
// (Section VI): from the design models it generates a runnable cloud
// monitor. The output is a Go module of four files over cloudmon's one
// pipeline:
//
//	go.mod        module cloudmon/gen/<project>, building against the
//	              cloudmon checkout it was generated in (a local replace,
//	              so nothing is downloaded)
//	model.xmi     the model, embedded into the binary
//	contracts.go  the Listing-1 contracts with their SecReqs, the URI
//	              table with each route's cloud API (the urls.py
//	              analogue) and the digest of the contracts
//	main.go       decodes the embedded model, refuses it unless its
//	              contracts have the recorded digest, and runs cloudmon's
//	              command line on it (internal/monitorcmd)
//
// The views.py analogue is the runtime's check of each pre- and
// post-condition around the forward, so the generated monitor enforces
// exactly what cloudmon enforces. There is no models.py analogue: the
// monitor reads the cloud's state on each request rather than keep a
// local mirror of it.
package codegen

import (
	"bytes"
	"fmt"
	"go/format"
	"io"
	"os"
	"path/filepath"
	"strings"
	"unicode"

	"cloudmon/internal/analysis"
	"cloudmon/internal/contract"
	"cloudmon/internal/osbinding"
	"cloudmon/internal/uml"
	"cloudmon/internal/xmi"
)

// Options configures generation.
type Options struct {
	// Project names the generated module (cloudmon/gen/<Project>) and
	// command (the ProjectName argument of `uml2go ProjectName
	// diagrams.xmi`).
	Project string
	// Runtime is the root of the cloudmon checkout the generated module
	// builds against (see FindRuntime).
	Runtime string
	// Lenient downgrades static-analysis errors from refusal to a
	// warning: generation proceeds even when modelvet reports errors.
	Lenient bool
	// AnalysisLog receives the rendered modelvet report when the model
	// has diagnostics; nil discards it.
	AnalysisLog io.Writer
}

// Result is the generated file set, keyed by file name.
type Result struct {
	Files map[string][]byte
	// Contracts is the contract set the generated monitor enforces.
	Contracts *contract.Set
}

// Generate produces the monitor from a validated model. Everything it
// generates comes from the model as model.xmi encodes it, since that is
// what the monitor runs.
func Generate(m *uml.Model, opts Options) (*Result, error) {
	if opts.Project == "" {
		return nil, fmt.Errorf("codegen: missing project name")
	}
	if !validIdent(opts.Project) {
		return nil, fmt.Errorf("codegen: project name %q is not a valid Go identifier", opts.Project)
	}
	if opts.Runtime == "" {
		return nil, fmt.Errorf("codegen: missing runtime path (the cloudmon checkout; see FindRuntime)")
	}
	runtime, err := filepath.Abs(opts.Runtime)
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	// The generated module's go line is the runtime's, which a module
	// requiring it may not undercut.
	goMod := filepath.Join(runtime, "go.mod")
	goVersion := goModLine(goMod, "go")
	if goModLine(goMod, "module") != "cloudmon" || goVersion == "" {
		return nil, fmt.Errorf("codegen: runtime %s is not a cloudmon checkout (its go.mod must declare module cloudmon and a go version)", runtime)
	}
	model, err := xmi.Encode(m)
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	if m, err = xmi.Decode(model); err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	report := analysis.Analyze(m, analysis.Config{})
	if len(report.Diagnostics) > 0 && opts.AnalysisLog != nil {
		fmt.Fprint(opts.AnalysisLog, report.Render())
	}
	if report.HasErrors() && !opts.Lenient {
		return nil, fmt.Errorf("codegen: model rejected by static analysis (%d error(s); run modelvet for details, or pass -lenient to generate anyway):\n%s",
			report.Count(analysis.Error), strings.TrimRight(report.Render(), "\n"))
	}
	set, err := contract.Generate(m)
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	data := templateData{
		Project:   opts.Project,
		Runtime:   runtime,
		GoVersion: goVersion,
		ModelName: m.Resource.Name,
		Digest:    set.Digest(),
	}
	for _, c := range set.Contracts {
		data.Contracts = append(data.Contracts, contractData{
			Trigger: c.Trigger.String(),
			SecReqs: strings.Join(c.SecReqs, ", "),
			Listing: strings.Split(strings.TrimSuffix(contract.RenderListing(c, contract.StyleConjunction), "\n"), "\n"),
		})
	}
	for _, r := range osbinding.Routes(set) {
		data.Routes = append(data.Routes, fmt.Sprintf("%-6s %-45s -> %s", r.Trigger.Method, r.Pattern, r.Backend))
	}

	files := map[string][]byte{"model.xmi": model}
	for name, tmpl := range templates {
		var buf bytes.Buffer
		if err := tmpl.Execute(&buf, data); err != nil {
			return nil, fmt.Errorf("codegen: render %s: %w", name, err)
		}
		out := buf.Bytes()
		if strings.HasSuffix(name, ".go") {
			formatted, err := format.Source(out)
			if err != nil {
				return nil, fmt.Errorf("codegen: format %s: %w (source:\n%s)", name, err, out)
			}
			out = formatted
		}
		files[name] = out
	}
	return &Result{Files: files, Contracts: set}, nil
}

// FindRuntime returns the root of the cloudmon checkout dir lies in: the
// nearest directory at or above dir whose go.mod declares module
// cloudmon, found as the go tool finds a module root.
func FindRuntime(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("codegen: %w", err)
	}
	for d := dir; ; {
		if goModLine(filepath.Join(d, "go.mod"), "module") == "cloudmon" {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("codegen: %s is not inside a cloudmon checkout (no go.mod declaring module cloudmon in it or above it); run uml2go from the checkout, whose packages the generated monitor builds against", dir)
		}
		d = parent
	}
}

// goModLine returns the argument of the first directive named verb
// ("module", "go") in the go.mod file at path, or "" if there is none.
func goModLine(path, verb string) string {
	data, _ := os.ReadFile(path)
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), verb+" "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// WriteFiles writes the generated files into dir, creating it if needed.
func WriteFiles(dir string, files map[string][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("codegen: %w", err)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return fmt.Errorf("codegen: write %s: %w", name, err)
		}
	}
	return nil
}

// templateData is the input to the file templates.
type templateData struct {
	Project   string
	Runtime   string
	GoVersion string
	ModelName string
	Digest    string
	Contracts []contractData
	// Routes are the URI table's lines, one per route.
	Routes []string
}

type contractData struct {
	Trigger string
	SecReqs string
	// Listing is the contract's Listing-1 rendering, one line each.
	Listing []string
}

// validIdent reports whether s can serve as a Go identifier/module name.
func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if i == 0 && !unicode.IsLetter(r) && r != '_' {
			return false
		}
		if i > 0 && !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
			return false
		}
	}
	return true
}
