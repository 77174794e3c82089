package codegen

import (
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cloudmon/internal/contract"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
	"cloudmon/internal/xmi"
)

// runtime returns the checkout the tests run in.
func runtime(t *testing.T) string {
	t.Helper()
	rt, err := FindRuntime(".")
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func generate(t *testing.T, m *uml.Model) *Result {
	t.Helper()
	res, err := Generate(m, Options{Project: "cindermon", Runtime: runtime(t)})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return res
}

func generatePaper(t *testing.T) *Result {
	t.Helper()
	return generate(t, paper.CinderModel())
}

// TestGenerateProducesAllFiles: the output is exactly the module, the
// model and the two Go files; nothing else is generated.
func TestGenerateProducesAllFiles(t *testing.T) {
	res := generatePaper(t)
	var names []string
	for name := range res.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	if got := strings.Join(names, " "); got != "contracts.go go.mod main.go model.xmi" {
		t.Errorf("generated files %s, want contracts.go go.mod main.go model.xmi", got)
	}
	mod := string(res.Files["go.mod"])
	for _, want := range []string{
		"module cloudmon/gen/cindermon\n",
		"go " + goModLine(filepath.Join(runtime(t), "go.mod"), "go") + "\n",
		"require cloudmon v0.0.0\n",
		"replace cloudmon => " + strconv.Quote(runtime(t)) + "\n",
	} {
		if !strings.Contains(mod, want) {
			t.Errorf("go.mod lacks %q:\n%s", want, mod)
		}
	}
}

// TestGeneratedResourcesMirrorModel: model.xmi, the model the generated
// monitor embeds, carries the model's resources and decodes to the
// contracts the generator recorded.
func TestGeneratedResourcesMirrorModel(t *testing.T) {
	for _, m := range []*uml.Model{paper.CinderModel(), paper.NovaModel()} {
		res := generate(t, m)
		got, err := xmi.Decode(res.Files["model.xmi"])
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Resource.Resources) != len(m.Resource.Resources) {
			t.Fatalf("%s: model.xmi has %d resources, want %d", m.Resource.Name, len(got.Resource.Resources), len(m.Resource.Resources))
		}
		for i, r := range m.Resource.Resources {
			g := got.Resource.Resources[i]
			if g.Name != r.Name || g.Kind != r.Kind || len(g.Attributes) != len(r.Attributes) {
				t.Errorf("%s: resource %d is %s/%s with %d attributes, want %s/%s with %d", m.Resource.Name, i,
					g.Name, g.Kind, len(g.Attributes), r.Name, r.Kind, len(r.Attributes))
			}
		}
		want, err := contract.Generate(m)
		if err != nil {
			t.Fatal(err)
		}
		set, err := contract.Generate(got)
		if err != nil {
			t.Fatal(err)
		}
		if set.Digest() != want.Digest() || res.Contracts.Digest() != want.Digest() {
			t.Errorf("%s: model.xmi's contracts digest %s, recorded %s, the model's %s", m.Resource.Name,
				set.Digest(), res.Contracts.Digest(), want.Digest())
		}
	}
}

func TestGeneratedContractsEmbedOCL(t *testing.T) {
	res := generatePaper(t)
	src := string(res.Files["contracts.go"])
	for _, want := range []string{
		"//\tPreCondition(DELETE(/projects/{project_id}/volumes/{volume_id})):",
		"//\tPostCondition(DELETE(/projects/{project_id}/volumes/{volume_id})):",
		"volume.status <> 'in-use'",
		"user.id.groups = 'admin'",
		"// DELETE(volume), security requirements: SecReq 1.4",
		"// POST(volume), security requirements: SecReq 1.3",
		"const contractsDigest = " + strconv.Quote(res.Contracts.Digest()),
	} {
		if !strings.Contains(src, want) {
			t.Errorf("contracts.go missing %q", want)
		}
	}
}

// TestGeneratedRoutesUseModelURIs: the URI table names each route by its
// model URI and the cloud API the runtime forwards it to, the compute API
// for the Nova model's servers.
func TestGeneratedRoutesUseModelURIs(t *testing.T) {
	for _, c := range []struct {
		model  *uml.Model
		routes [][3]string
	}{
		{paper.CinderModel(), [][3]string{
			{"DELETE", "/projects/{project_id}/volumes/{volume_id}", "/volume/v3/{project_id}/volumes/{volume_id}"},
			{"GET", "/projects/{project_id}/volumes/{volume_id}", "/volume/v3/{project_id}/volumes/{volume_id}"},
			{"POST", "/projects/{project_id}/volumes", "/volume/v3/{project_id}/volumes"},
			{"PUT", "/projects/{project_id}/volumes/{volume_id}", "/volume/v3/{project_id}/volumes/{volume_id}"},
		}},
		{paper.NovaModel(), [][3]string{
			{"POST", "/projects/{project_id}/servers", "/compute/v2.1/{project_id}/servers"},
			{"DELETE", "/projects/{project_id}/servers/{server_id}", "/compute/v2.1/{project_id}/servers/{server_id}"},
		}},
	} {
		src := string(generate(t, c.model).Files["contracts.go"])
		lines := map[string]bool{}
		for _, line := range strings.Split(src, "\n") {
			lines[strings.Join(strings.Fields(line), " ")] = true
		}
		for _, r := range c.routes {
			if want := "// " + r[0] + " " + r[1] + " -> " + r[2]; !lines[want] {
				t.Errorf("%s: contracts.go has no route line %q", c.model.Resource.Name, want)
			}
		}
	}
}

// TestGeneratedCodeImportsOnlyTheRuntime: the generated Go files carry
// no proxy of their own. main.go imports the runtime's command line and
// nothing that could forward a request or evaluate a contract, and
// contracts.go imports nothing.
func TestGeneratedCodeImportsOnlyTheRuntime(t *testing.T) {
	res := generatePaper(t)
	for name, want := range map[string]string{
		"main.go":      "cloudmon/internal/monitorcmd embed fmt os",
		"contracts.go": "",
	} {
		f, err := parser.ParseFile(token.NewFileSet(), name, res.Files[name], parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		var imports []string
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			imports = append(imports, path)
		}
		sort.Strings(imports)
		if got := strings.Join(imports, " "); got != want {
			t.Errorf("%s imports %q, want %q", name, got, want)
		}
	}
}

// TestGeneratedCodeCompiles writes the monitor to disk and builds it with
// a plain go build, downloads off: the module needs nothing beyond the
// checkout it was generated in.
func TestGeneratedCodeCompiles(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	res := generatePaper(t)
	dir := t.TempDir()
	if err := WriteFiles(dir, res.Files); err != nil {
		t.Fatalf("WriteFiles: %v", err)
	}
	cmd := exec.Command("go", "build", "-o", filepath.Join(dir, "cindermon"), ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOPROXY=off", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("generated code does not compile: %v\n%s", err, out)
	}
}

func TestGenerateValidation(t *testing.T) {
	rt := runtime(t)
	if _, err := Generate(paper.CinderModel(), Options{Runtime: rt}); err == nil {
		t.Error("missing project name accepted")
	}
	if _, err := Generate(paper.CinderModel(), Options{Project: "9bad", Runtime: rt}); err == nil {
		t.Error("invalid identifier accepted")
	}
	if _, err := Generate(paper.CinderModel(), Options{Project: "with space", Runtime: rt}); err == nil {
		t.Error("identifier with space accepted")
	}
	if _, err := Generate(paper.CinderModel(), Options{Project: "x"}); err == nil {
		t.Error("missing runtime path accepted")
	}
	if _, err := Generate(paper.CinderModel(), Options{Project: "x", Runtime: t.TempDir()}); err == nil {
		t.Error("a runtime path outside a checkout accepted")
	}
	bad := paper.CinderModel()
	bad.Behavioral.Transitions[0].Guard = "((("
	if _, err := Generate(bad, Options{Project: "x", Runtime: rt}); err == nil {
		t.Error("malformed model accepted")
	}
}

// TestFindRuntime: the runtime is the nearest directory declaring module
// cloudmon, past nested modules of other names; outside a checkout there
// is none.
func TestFindRuntime(t *testing.T) {
	root := runtime(t)
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.HasPrefix(string(data), "module cloudmon\n") {
		t.Fatalf("FindRuntime(.) = %s, whose go.mod is %q (%v)", root, data, err)
	}
	nested := filepath.Join(t.TempDir(), "gen", "out")
	if err := WriteFiles(nested, map[string][]byte{"go.mod": []byte("module cloudmon/gen/out\n")}); err != nil {
		t.Fatal(err)
	}
	if got, err := FindRuntime(nested); err == nil {
		t.Errorf("FindRuntime outside a checkout = %s, want an error", got)
	} else if !strings.Contains(err.Error(), "not inside a cloudmon checkout") {
		t.Errorf("FindRuntime outside a checkout: %v", err)
	}
	if err := os.WriteFile(filepath.Join(filepath.Dir(filepath.Dir(nested)), "go.mod"), []byte("module \"cloudmon\"\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := FindRuntime(nested); err != nil || got != filepath.Dir(filepath.Dir(nested)) {
		t.Errorf("FindRuntime below a checkout = %s, %v", got, err)
	}
}

func TestWriteFilesCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "out")
	if err := WriteFiles(dir, map[string][]byte{"a.txt": []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "a.txt"))
	if err != nil || string(data) != "hi" {
		t.Errorf("read back = %q, %v", data, err)
	}
}

func TestGenerateRefusesAnalyzerErrors(t *testing.T) {
	// An unparsable invariant is an MV001 error: strict generation must
	// refuse, lenient generation must proceed and log the report.
	m := paper.CinderModel()
	m.Behavioral.States[0].Invariant = "volumes->size( = 1"
	rt := runtime(t)
	_, err := Generate(m, Options{Project: "broken", Runtime: rt})
	if err == nil || !strings.Contains(err.Error(), "static analysis") {
		t.Fatalf("Generate on broken model: err = %v, want static-analysis refusal", err)
	}
	if !strings.Contains(err.Error(), "MV001") {
		t.Errorf("refusal does not name the diagnostic: %v", err)
	}

	var log strings.Builder
	res, err := Generate(m, Options{Project: "broken", Runtime: rt, Lenient: true, AnalysisLog: &log})
	if err == nil {
		// Lenient passes the analyzer gate; contract generation itself
		// may still fail on the unparsable OCL, which is acceptable.
		if res == nil {
			t.Fatal("lenient Generate returned nil result and nil error")
		}
	} else if !strings.Contains(err.Error(), "codegen:") {
		t.Fatalf("lenient Generate: unexpected error %v", err)
	}
	if !strings.Contains(log.String(), "MV001") {
		t.Errorf("AnalysisLog did not receive the report:\n%s", log.String())
	}
}
