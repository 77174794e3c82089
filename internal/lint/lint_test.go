package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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

// TestHotPathForbidsErrorsAs: errors.As boxes its target on every call,
// so the demand loop may not use it to tell a demand from a failure.
func TestHotPathForbidsErrorsAs(t *testing.T) {
	findings := lintSrc(t, `package monitor

import "errors"

type Demand struct{}

func (*Demand) Error() string { return "" }

func evalProgram(err error) bool {
	var d *Demand
	return errors.As(err, &d)
}
`)
	wantFinding(t, findings, "hotpath", "evalProgram calls errors.As")
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
}

// TestHotPathCoversPreReadAndSend: the pre read may neither read the
// clock nor allocate a map, and the shared cloud send may not regrow a
// reply's buffer.
func TestHotPathCoversPreReadAndSend(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`package monitor

import "time"

type fetcher struct{}

func (f *fetcher) readPre() { _ = time.Now() }
`, "(*fetcher).readPre calls time.Now"},
		{`package monitor

type fetcher struct{ got map[string]int }

func (f *fetcher) readPre() { f.got = make(map[string]int, 4) }
`, "(*fetcher).readPre allocates a map"},
		{`package httpkit

import (
	"io"
	"net/http"
)

func Send(resp *http.Response) { _, _ = io.ReadAll(resp.Body) }
`, "Send calls io.ReadAll"},
	} {
		findings := lintSrc(t, tc.src)
		wantFinding(t, findings, "hotpath", tc.want)
		if len(findings) != 1 {
			t.Errorf("got %d findings, want 1: %v", len(findings), findings)
		}
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

// TestRunPatternsNameRealTests reads every go test command in CI's
// workflow and the Makefile, splits its -run pattern into its |
// alternatives and fails on an alternative that matches no Test or Fuzz
// function in the packages the command names: go test passes when a
// pattern matches nothing, so a renamed or deleted test would drop out of
// its step silently. A command that also passes -bench or -fuzz is
// skipped, since its -run is meant to match nothing.
func TestRunPatternsNameRealTests(t *testing.T) {
	root := repoRoot(t)
	commands := 0
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		data, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		for _, words := range goTestCommands(string(data)) {
			run, pkgs, skip := goTestArgs(words)
			if skip || run == "" {
				continue
			}
			commands++
			var names []string
			for _, pkg := range pkgs {
				for _, dir := range packageDirs(t, root, pkg) {
					names = append(names, testFuncs(t, dir)...)
				}
			}
			for _, alt := range strings.Split(run, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run alternative %q: %v", file, alt, err)
					continue
				}
				matched := false
				for _, name := range names {
					if re.MatchString(name) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s: -run alternative %q matches no test in %s", file, alt, strings.Join(pkgs, " "))
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("found no go test -run command in ci.yml or the Makefile")
	}
}

// goTestCommands returns the words of every go test command in a
// workflow or Makefile, with backslash-continued lines joined.
func goTestCommands(text string) [][]string {
	var cmds [][]string
	for _, line := range strings.Split(strings.ReplaceAll(text, "\\\n", " "), "\n") {
		for rest := line; ; {
			i := strings.Index(rest, "go test ")
			if i < 0 {
				break
			}
			rest = rest[i+len("go test "):]
			cmds = append(cmds, append([]string{"go", "test"}, shellWords(rest)...))
		}
	}
	return cmds
}

// shellWords splits one simple shell command into words: blanks separate
// words, quotes group, and an unquoted |, ; or & ends the command.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote byte
scan:
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case c == '|' || c == ';' || c == '&':
			break scan
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// goTestArgs picks the -run pattern and the package patterns out of a go
// test command's words, and reports whether it passes -bench or -fuzz.
// With no package pattern the command tests the current directory.
func goTestArgs(words []string) (run string, pkgs []string, skip bool) {
	for i := 2; i < len(words); i++ {
		w := words[i]
		switch {
		case w == "-run" && i+1 < len(words):
			i++
			run = words[i]
		case strings.HasPrefix(w, "-run="):
			run = strings.TrimPrefix(w, "-run=")
		case w == "-bench" || w == "-fuzz" || strings.HasPrefix(w, "-bench=") || strings.HasPrefix(w, "-fuzz="):
			skip = true
		case w == "." || strings.HasPrefix(w, "./"):
			pkgs = append(pkgs, w)
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return run, pkgs, skip
}

// packageDirs expands a package pattern relative to the repository root:
// a directory, or with /... every directory below it that belongs to the
// root module.
func packageDirs(t *testing.T, root, pkg string) []string {
	t.Helper()
	base, recursive := strings.CutSuffix(strings.TrimSuffix(pkg, "/"), "/...")
	dir := filepath.Join(root, base)
	if !recursive {
		return []string{dir}
	}
	var dirs []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
			return filepath.SkipDir // a nested module: go test ./... skips it
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// testFuncs lists the Test and Fuzz functions of a directory's test files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && fn.Name.Name != "TestMain" &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
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
