package lint

import (
	"go/ast"
	"path/filepath"
	"regexp"
)

// Analyzers returns the repo's full analyzer set, in the order findings
// should be reported.
func Analyzers() []*Analyzer {
	return []*Analyzer{HotPath(), AtomicCounters(), CanonicalJSON()}
}

// hotFuncs names the per-request hot path, per package: the monitor's
// demand loop, which runs once per clause and re-enters once per demanded
// path, and the per-path pre-state read (a result a wave already brought
// returns from it without leaving); the compiled engine's slot accessors and program
// entry, which every clause closure funnels through, where a stray
// allocation multiplies by the atom count; and the state provider's
// per-read resolver and its response scanner, which runs over every body
// the cloud returns.
// Everything reachable per request but outside these (stage timing, the
// provider's retry loop, forwarding, verdict recording) allocates or
// reads the clock by design. TestHotFuncsNameRealFunctions keeps every
// entry pointing at a function that exists.
var hotFuncs = map[string]map[string]bool{
	"monitor": {
		"evalProgram":         true,
		"(*fetcher).fetchPre": true,
	},
	"contract": {
		"(*Frame).loadCur":    true,
		"(*Frame).loadPre":    true,
		"(*Frame).SetCur":     true,
		"(*Frame).SetCurSlot": true,
		"(*Frame).Cur":        true,
		"(*Frame).Pre":        true,
		"(*Frame).Filled":     true,
		"(*Program).Run":      true,
	},
	"osbinding": {
		"(*Provider).resolve":   true,
		"(*binding).target":     true,
		"(*shape).decode":       true,
		"(*shape).scan":         true,
		"(*scanner).object":     true,
		"(*scanner).value":      true,
		"(*scanner).array":      true,
		"(*scanner).skip":       true,
		"(*scanner).collection": true,
	},
}

// HotPath forbids wall-clock reads, string formatting, and map
// allocation inside the monitor's hot-path functions. Each of those
// has shown up in the monitor's CPU profiles; the rule keeps them from
// creeping back.
func HotPath() *Analyzer {
	return &Analyzer{
		Name: "hotpath",
		Doc:  "no time.Now, fmt.Sprintf, or map allocation in the monitor hot path",
		Run:  runHotPath,
	}
}

func runHotPath(p *Pass) {
	funcs := hotFuncs[p.Pkg]
	if funcs == nil {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !funcs[funcKey(fn)] {
				continue
			}
			name := funcKey(fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if isPkgCall(n, "time", "Now") {
						p.Reportf(n.Pos(), "%s calls time.Now in the hot path; take timestamps outside or reuse the request's", name)
					}
					if isPkgCall(n, "fmt", "Sprintf") {
						p.Reportf(n.Pos(), "%s calls fmt.Sprintf in the hot path; format lazily in the verdict or error path", name)
					}
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
						if _, isMap := n.Args[0].(*ast.MapType); isMap {
							p.Reportf(n.Pos(), "%s allocates a map in the hot path; preallocate at route-compile time", name)
						}
					}
				case *ast.CompositeLit:
					if _, isMap := n.Type.(*ast.MapType); isMap {
						p.Reportf(n.Pos(), "%s allocates a map literal in the hot path; preallocate at route-compile time", name)
					}
				}
				return true
			})
		}
	}
}

// funcKey renders a FuncDecl as "name" or "(*Recv).name".
func funcKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	switch t := fn.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fn.Name.Name
		}
	case *ast.Ident:
		return t.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// isPkgCall reports whether call is pkg.sel(...), matching the selector
// syntactically (the repo imports stdlib packages under their own names).
func isPkgCall(call *ast.CallExpr, pkg, sel string) bool {
	s, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// counterName matches struct field names that denote tallies shared
// across request goroutines.
var counterName = regexp.MustCompile(`(?i)(count|counter|total|hits|misses|pruned|mismatch|coalesced|outcomes|coverage)`)

// AtomicCounters requires that counter-named struct fields in the monitor
// package use the lock-free obs types (or sync/atomic) instead of raw
// integers: every request goroutine increments them, and a raw int is a
// data race the race detector only catches when two requests actually
// collide. Exported fields are exempt — they appear only in snapshot
// structs (Verdict, FetchStats) returned by value; the live
// shared state is always an unexported field.
func AtomicCounters() *Analyzer {
	return &Analyzer{
		Name: "atomiccounter",
		Doc:  "counter-named monitor struct fields must be obs.Counter/obs.KeyedCounter or atomic, not raw ints",
		Run:  runAtomicCounters,
	}
}

func runAtomicCounters(p *Pass) {
	if p.Pkg != "monitor" {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !isRawIntType(field.Type) {
					continue
				}
				for _, name := range field.Names {
					if !ast.IsExported(name.Name) && counterName.MatchString(name.Name) {
						p.Reportf(name.Pos(),
							"field %s looks like a shared counter but is a raw integer; use obs.Counter, obs.KeyedCounter, or sync/atomic",
							name.Name)
					}
				}
			}
			return true
		})
	}
}

// CanonicalJSON forbids plain encoding/json marshalling inside the
// evidence package: every signed or hashed document there must go
// through the canonical encoder, or two semantically identical
// documents could hash differently and verdict evidence would stop
// being portable. canonical.go itself — the codec — is exempt; reading
// (json.Unmarshal, json.NewDecoder) is always allowed.
func CanonicalJSON() *Analyzer {
	return &Analyzer{
		Name: "canonicaljson",
		Doc:  "the evidence package must marshal through evidence.Marshal, not encoding/json",
		Run:  runCanonicalJSON,
	}
}

func runCanonicalJSON(p *Pass) {
	if p.Pkg != "evidence" {
		return
	}
	for _, f := range p.Files {
		if filepath.Base(p.Fset.Position(f.Pos()).Filename) == "canonical.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, sel := range []string{"Marshal", "MarshalIndent", "NewEncoder"} {
				if isPkgCall(call, "json", sel) {
					p.Reportf(call.Pos(),
						"json.%s in package evidence bypasses canonicalization; use evidence.Marshal (hashes and signatures cover exact bytes)",
						sel)
				}
			}
			return true
		})
	}
}

func isRawIntType(t ast.Expr) bool {
	id, ok := t.(*ast.Ident)
	if !ok {
		return false
	}
	switch id.Name {
	case "int", "int32", "int64", "uint", "uint32", "uint64", "uintptr":
		return true
	}
	return false
}
