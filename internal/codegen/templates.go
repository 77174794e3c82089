package codegen

import "text/template"

// templates maps the generated file names, model.xmi aside, to their
// templates. Generated .go files are gofmt-ed after rendering.
var templates = map[string]*template.Template{
	"go.mod":       tmplGoMod,
	"contracts.go": tmplContracts,
	"main.go":      tmplMain,
}

var tmplGoMod = template.Must(template.New("go.mod").Parse(
	`// Generated by uml2go. The monitor builds against the cloudmon checkout
// it was generated in; nothing is downloaded.
module cloudmon/gen/{{.Project}}

go {{.GoVersion}}

require cloudmon v0.0.0

replace cloudmon => {{printf "%q" .Runtime}}
`))

var tmplContracts = template.Must(template.New("contracts.go").Parse(
	`// Code generated by uml2go from the {{.ModelName}} model. DO NOT EDIT.

package main

// The method contracts the monitor checks around each forward, generated
// from the state machine in model.xmi (Section V of the paper) and shown
// in the form of its Listing 1. A pre-condition is the disjunction of
// (source-state invariant and guard) over the method's transitions; a
// post-condition conjoins (pre implies target-state invariant and effect),
// where pre(...) is the state the monitor read before it forwarded the
// request.
{{- range .Contracts}}
//
// {{.Trigger}}, security requirements: SecReq {{.SecReqs}}
//
{{- range .Listing}}
//	{{.}}
{{- end}}
{{- end}}

// The URI table: each request the monitor checks, by its model URI, and
// the cloud API the monitor forwards it to.
//
{{- range .Routes}}
//	{{.}}
{{- end}}

// contractsDigest is the digest of the contracts above (contract.Set
// Digest). The monitor refuses to start on an embedded model whose
// contracts digest otherwise.
const contractsDigest = {{printf "%q" .Digest}}
`))

var tmplMain = template.Must(template.New("main.go").Parse(
	`// Code generated by uml2go from the {{.ModelName}} model. DO NOT EDIT.

// Command {{.Project}} is the cloud monitor generated from model.xmi. It
// takes cloudmon's flags and runs cloudmon's pipeline on the embedded
// model, after checking that the model's contracts still have the digest
// recorded in contracts.go:
//
//	{{.Project}} -cloud http://127.0.0.1:8776 -project <id> -addr :8000
package main

import (
	_ "embed"
	"fmt"
	"os"

	"cloudmon/internal/monitorcmd"
)

//go:embed model.xmi
var model []byte

func main() {
	if err := monitorcmd.RunModel(os.Args[1:], model, contractsDigest, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "{{.Project}}:", err)
		os.Exit(1)
	}
}
`))
