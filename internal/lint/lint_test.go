package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// parseSrc builds a Pass from synthetic source, the way testdata packages
// feed go/analysis analyzers.
func parseSrc(t *testing.T, src string) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return &Pass{Fset: fset, Pkg: f.Name.Name, Dir: ".", Files: []*ast.File{f}}
}

func lintSrc(t *testing.T, src string) []Finding {
	t.Helper()
	var findings []Finding
	RunPackage(parseSrc(t, src), Analyzers(), &findings)
	return findings
}

func wantFinding(t *testing.T, findings []Finding, analyzer, needle string) {
	t.Helper()
	for _, f := range findings {
		if f.Analyzer == analyzer && strings.Contains(f.Message, needle) {
			return
		}
	}
	t.Fatalf("no %s finding mentioning %q in %v", analyzer, needle, findings)
}

func TestHotPathForbidsTimeSprintfAndMaps(t *testing.T) {
	findings := lintSrc(t, `package monitor

import (
	"fmt"
	"time"
)

type fetcher struct{}

func (f *fetcher) fetchPre() {
	_ = time.Now()
	_ = fmt.Sprintf("%d", 1)
	_ = make(map[string]bool)
}

func evalProgram() {
	_ = map[string]int{"a": 1}
}
`)
	wantFinding(t, findings, "hotpath", "(*fetcher).fetchPre calls time.Now")
	wantFinding(t, findings, "hotpath", "(*fetcher).fetchPre calls fmt.Sprintf")
	wantFinding(t, findings, "hotpath", "(*fetcher).fetchPre allocates a map")
	wantFinding(t, findings, "hotpath", "evalProgram allocates a map literal")
	if len(findings) != 4 {
		t.Fatalf("got %d findings, want 4: %v", len(findings), findings)
	}
}

// TestHotPathCoversCompiledEngine pins the rule's reach into the
// contract package: the compiled engine's slot accessors are on every
// clause closure's path, so the same constructs are forbidden there.
func TestHotPathCoversCompiledEngine(t *testing.T) {
	findings := lintSrc(t, `package contract

import "time"

type Frame struct{}
type Program struct{}

func (fr *Frame) loadCur(i int) { _ = time.Now() }

func (p *Program) Run() { _ = make(map[string]int) }
`)
	wantFinding(t, findings, "hotpath", "(*Frame).loadCur calls time.Now")
	wantFinding(t, findings, "hotpath", "(*Program).Run allocates a map")
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(findings), findings)
	}
}

// TestHotPathForbidsReparseAndRegrowth: a cloud round trip's hot
// functions may neither parse a URL, nor build a request through the
// net/http constructors that parse one, nor read a body into a buffer
// io.ReadAll regrows.
func TestHotPathForbidsReparseAndRegrowth(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`package httpkit

import "net/url"

type Endpoint struct{}

func (e *Endpoint) Request() { _, _ = url.Parse("http://cloud") }
`, "(*Endpoint).Request calls url.Parse"},
		{`package monitor

import "net/http"

type HTTPForwarder struct{}

func (f *HTTPForwarder) Forward() { _, _ = http.NewRequest("GET", "http://cloud/x", nil) }
`, "(*HTTPForwarder).Forward calls http.NewRequest"},
		{`package osbinding

import (
	"context"
	"net/http"
)

type Provider struct{}

func (p *Provider) Snapshot() {
	_, _ = http.NewRequestWithContext(context.Background(), "GET", "http://cloud/x", nil)
}
`, "(*Provider).Snapshot calls http.NewRequestWithContext"},
		{`package httpkit

import "io"

func ReadBounded(r io.Reader) { _, _ = io.ReadAll(r) }
`, "ReadBounded calls io.ReadAll"},
	} {
		findings := lintSrc(t, tc.src)
		wantFinding(t, findings, "hotpath", tc.want)
		if len(findings) != 1 {
			t.Errorf("got %d findings, want 1: %v", len(findings), findings)
		}
	}
}

func TestHotPathIgnoresColdFunctionsAndOtherPackages(t *testing.T) {
	// The same constructs outside the hot-path functions are fine: the
	// check's stage timing reads the clock by design.
	if f := lintSrc(t, `package monitor

import "time"

func (m *Monitor) check() { _ = time.Now(); _ = make(map[string]bool) }

type Monitor struct{}
`); len(f) != 0 {
		t.Fatalf("cold function flagged: %v", f)
	}
	// A function named evalProgram in a different package is out of scope.
	if f := lintSrc(t, `package other

import "time"

func evalProgram() { _ = time.Now() }
`); len(f) != 0 {
		t.Fatalf("other package flagged: %v", f)
	}
}

func TestAtomicCountersFlagsRawSharedInts(t *testing.T) {
	findings := lintSrc(t, `package monitor

type Monitor struct {
	requestCount uint64
	retryCount   int64
}
`)
	wantFinding(t, findings, "atomiccounter", "requestCount")
	wantFinding(t, findings, "atomiccounter", "retryCount")
}

func TestAtomicCountersAllowsObsTypesAndSnapshots(t *testing.T) {
	findings := lintSrc(t, `package monitor

import "cloudmon/internal/obs"

type Monitor struct {
	coalesced obs.Counter
	coverage  obs.KeyedCounter
	maxLog    int
}

// Snapshot structs returned by value carry exported raw ints by design.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}
`)
	if len(findings) != 0 {
		t.Fatalf("legitimate counters flagged: %v", findings)
	}
}

func TestCanonicalJSONForbidsPlainMarshalInEvidence(t *testing.T) {
	findings := lintSrc(t, `package evidence

import (
	"encoding/json"
	"io"
)

func bad(w io.Writer) {
	_, _ = json.Marshal(1)
	_, _ = json.MarshalIndent(1, "", " ")
	_ = json.NewEncoder(w)
}

func stillFine() {
	_ = json.Unmarshal(nil, nil)
	_ = json.NewDecoder(nil)
}
`)
	wantFinding(t, findings, "canonicaljson", "json.Marshal in package evidence")
	wantFinding(t, findings, "canonicaljson", "json.MarshalIndent in package evidence")
	wantFinding(t, findings, "canonicaljson", "json.NewEncoder in package evidence")
	if len(findings) != 3 {
		t.Fatalf("got %d findings, want 3 (reads are allowed): %v", len(findings), findings)
	}
}

func TestCanonicalJSONExemptsCodecAndOtherPackages(t *testing.T) {
	// canonical.go IS the codec: it must call encoding/json.
	src := `package evidence

import "encoding/json"

func Marshal(v any) ([]byte, error) { return json.Marshal(v) }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "canonical.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var findings []Finding
	RunPackage(&Pass{Fset: fset, Pkg: "evidence", Dir: ".", Files: []*ast.File{f}}, Analyzers(), &findings)
	if len(findings) != 0 {
		t.Fatalf("canonical.go exemption broken: %v", findings)
	}
	// Any other package may marshal as it likes.
	if f := lintSrc(t, `package obs

import "encoding/json"

func write() { _, _ = json.Marshal(1) }
`); len(f) != 0 {
		t.Fatalf("other package flagged: %v", f)
	}
}

// repoRoot is the repository root, found from this file's path.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Skip("caller unavailable")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file))) // internal/lint -> repo root
}

// TestHotFuncsNameRealFunctions parses internal/<pkg> for every package
// hotFuncs names and fails on an entry that names no function there: the
// analyzer skips names that match nothing, so a renamed or deleted hot
// function would otherwise drop out of the rule silently.
func TestHotFuncsNameRealFunctions(t *testing.T) {
	pkgs, err := loadPackages(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]map[string]bool{}
	for _, p := range pkgs {
		if hotFuncs[p.Pkg] == nil || p.Dir != filepath.Join("internal", p.Pkg) {
			continue
		}
		defined[p.Pkg] = map[string]bool{}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok {
					defined[p.Pkg][funcKey(fn)] = true
				}
			}
		}
	}
	for pkg, funcs := range hotFuncs {
		if defined[pkg] == nil {
			t.Errorf("hotFuncs names package %s, which is not under internal/", pkg)
			continue
		}
		for name := range funcs {
			if !defined[pkg][name] {
				t.Errorf("hotFuncs entry %s.%s names no function in package %s", pkg, name, pkg)
			}
		}
	}
}

// TestRepoIsClean lints the actual repository: the monitor hot path and
// counter fields must satisfy the rules the analyzers enforce.
func TestRepoIsClean(t *testing.T) {
	findings, err := Run(repoRoot(t), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
