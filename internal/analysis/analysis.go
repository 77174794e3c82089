// Package analysis implements "modelvet": a multi-pass static analyzer
// over the design models (uml.Model) and the contracts generated from
// them. It catches the specification errors the paper's workflow would
// otherwise ship into a running monitor — type-confused OCL, unreachable
// states, contradictory guards, colliding URIs, untraced security
// requirements, and postconditions the proxy cannot observe — before any
// code is generated.
//
// Each check is an independent pass producing structured Diagnostics with
// a stable code (MVnnn), a severity, and a model location. Codes are
// grouped by pass:
//
//	MV0xx  ocl-typecheck      OCL parsing, vocabulary and type errors
//	MV1xx  reachability       unreachable states, dead transitions, traps
//	MV2xx  guards             contradictory / overlapping / illegal guards
//	MV3xx  interface          URI collisions, unaddressable resources,
//	                          contract-table holes, route conflicts
//	MV4xx  secreq             security-requirement traceability
//	MV5xx  monitorability     postconditions the proxy cannot observe
//	MV6xx  frames             dead effects, disjuncts blind to their
//	                          trigger's guard vocabulary
//
// Diagnostics are deterministically ordered and exact duplicates removed,
// so the analyzer's output is byte-for-byte reproducible — a requirement
// for golden tests and CI.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
	"cloudmon/internal/uml"
)

// Severity grades a diagnostic.
type Severity int

// Severities. Errors gate generation; warnings and infos are advisory.
const (
	// Info flags a noteworthy but legal modeling choice (e.g. a method
	// with no transition).
	Info Severity = iota + 1
	// Warning flags a construct that is almost certainly a mistake but
	// does not break generation or evaluation.
	Warning
	// Error flags a construct that breaks contract generation or is
	// guaranteed to fail at monitoring time.
	Error
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Location identifies the model element a diagnostic is anchored at.
type Location struct {
	// Diagram is "resource" or "behavioral".
	Diagram string `json:"diagram"`
	// Element names the element, e.g. `state "full"` or
	// `transition POST(volume) a->b`.
	Element string `json:"element"`
	// Detail narrows the element part, e.g. "guard", "effect",
	// "invariant". Optional.
	Detail string `json:"detail,omitempty"`
}

// String renders the location. The diagram is omitted — element names
// ("state", "transition", "resource", "uri") already identify it; the
// JSON form carries the diagram explicitly.
func (l Location) String() string {
	s := l.Element
	if l.Detail != "" {
		s += " " + l.Detail
	}
	return s
}

// Diagnostic is one finding of the analyzer.
type Diagnostic struct {
	// Code is the stable diagnostic code, e.g. "MV102".
	Code string `json:"code"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Pass is the name of the producing pass.
	Pass string `json:"pass"`
	// Loc anchors the finding at a model element.
	Loc Location `json:"location"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
	// SecReq is the related security-requirement tag, when the finding
	// concerns traceability. Optional.
	SecReq string `json:"secreq,omitempty"`
}

// String renders the diagnostic in the analyzer's one-line text format.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s %-7s %s: %s", d.Code, d.Severity, d.Loc, d.Message)
	if d.SecReq != "" {
		s += " [SecReq " + d.SecReq + "]"
	}
	return s
}

// Config tunes an analysis run.
type Config struct {
	// RequiredSecReqs lists security-requirement tags that must trace to
	// at least one transition (MV402). Empty disables the check.
	RequiredSecReqs []string
	// Passes selects pass names to run; nil runs every registered pass.
	Passes []string
}

// Pass is one independent analysis over the model.
type Pass struct {
	// Name identifies the pass (stable, kebab-case).
	Name string
	// Doc is a one-line description.
	Doc string
	// Codes lists the diagnostic codes the pass can emit.
	Codes []string
	// Run produces the pass's diagnostics.
	Run func(*Context) []Diagnostic
}

// Passes returns the registered passes in execution order.
func Passes() []Pass {
	return []Pass{
		typecheckPass(),
		reachabilityPass(),
		guardsPass(),
		interfacePass(),
		secreqPass(),
		monitorabilityPass(),
		framesPass(),
	}
}

// exprKind distinguishes the OCL attachment points of the metamodel.
type exprKind int

const (
	exprInvariant exprKind = iota + 1
	exprGuard
	exprEffect
)

func (k exprKind) String() string {
	switch k {
	case exprInvariant:
		return "invariant"
	case exprGuard:
		return "guard"
	case exprEffect:
		return "effect"
	}
	return "expr"
}

// modelExpr is one OCL fragment of the model, parsed once and shared by
// all passes. Expr is nil when parsing failed (the typecheck pass reports
// MV001 and dependent passes skip the fragment).
type modelExpr struct {
	Kind   exprKind
	Source string
	Expr   ocl.Expr
	Loc    Location
	// State is set for invariants.
	State *uml.State
	// Transition is set for guards and effects.
	Transition *uml.Transition
}

// Context carries the model and everything the passes share: parsed OCL
// fragments, the navigation vocabulary, the static type environment, and
// (when generation succeeds) the generated contracts.
type Context struct {
	Model  *uml.Model
	Config Config

	exprs   []modelExpr
	vocab   ocl.VocabularyFunc
	typeEnv ocl.TypeEnv

	// contracts is the generated contract set, nil when generation
	// failed (the underlying errors surface as diagnostics elsewhere).
	contracts *contract.Set
}

// Exprs returns the parsed OCL fragments of the model in declaration
// order: state invariants first, then per-transition guard and effect.
func (ctx *Context) Exprs() []modelExpr { return ctx.exprs }

// Contracts returns the generated contract set, or nil when contract
// generation failed.
func (ctx *Context) Contracts() *contract.Set { return ctx.contracts }

// stateLoc locates a state.
func stateLoc(s *uml.State, detail string) Location {
	return Location{Diagram: "behavioral", Element: fmt.Sprintf("state %q", s.Name), Detail: detail}
}

// transitionLoc locates a transition.
func transitionLoc(t *uml.Transition, detail string) Location {
	return Location{
		Diagram: "behavioral",
		Element: fmt.Sprintf("transition %s %s->%s", t.Trigger, t.From, t.To),
		Detail:  detail,
	}
}

// resourceLoc locates a resource definition.
func resourceLoc(name, detail string) Location {
	return Location{Diagram: "resource", Element: fmt.Sprintf("resource %q", name), Detail: detail}
}

// newContext parses every OCL fragment and prepares shared state.
func newContext(m *uml.Model, cfg Config) *Context {
	ctx := &Context{Model: m, Config: cfg}
	ctx.vocab = contract.VocabularyOf(m.Resource)
	ctx.typeEnv = TypeEnvOf(m.Resource)
	for _, s := range m.Behavioral.States {
		e, err := ocl.Parse(s.Invariant)
		if err != nil {
			e = nil
		}
		ctx.exprs = append(ctx.exprs, modelExpr{
			Kind: exprInvariant, Source: s.Invariant, Expr: e,
			Loc: stateLoc(s, "invariant"), State: s,
		})
	}
	for _, t := range m.Behavioral.Transitions {
		guard, err := ocl.Parse(t.Guard)
		if err != nil {
			guard = nil
		}
		ctx.exprs = append(ctx.exprs, modelExpr{
			Kind: exprGuard, Source: t.Guard, Expr: guard,
			Loc: transitionLoc(t, "guard"), Transition: t,
		})
		effect, err := ocl.Parse(t.Effect)
		if err != nil {
			effect = nil
		}
		ctx.exprs = append(ctx.exprs, modelExpr{
			Kind: exprEffect, Source: t.Effect, Expr: effect,
			Loc: transitionLoc(t, "effect"), Transition: t,
		})
	}
	if set, err := contract.Generate(m); err == nil {
		ctx.contracts = set
	}
	return ctx
}

// Report is the result of an analysis run.
type Report struct {
	// Diagnostics are sorted deterministically (code, then location,
	// then message).
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// Analyze runs the configured passes over the model and returns the
// sorted report. The model must be structurally valid (uml.Model.Validate)
// — structural breakage is reported as a single MV000 diagnostic per
// joined validation error line, since the passes cannot run reliably on a
// malformed model.
func Analyze(m *uml.Model, cfg Config) *Report {
	r := &Report{}
	if err := m.Validate(); err != nil {
		for _, line := range strings.Split(err.Error(), "\n") {
			if line == "" {
				continue
			}
			r.Diagnostics = append(r.Diagnostics, Diagnostic{
				Code:     "MV000",
				Severity: Error,
				Pass:     "structure",
				Loc:      Location{Diagram: "model", Element: "validation"},
				Message:  line,
			})
		}
		sortDiagnostics(r.Diagnostics)
		return r
	}
	ctx := newContext(m, cfg)
	selected := make(map[string]bool, len(cfg.Passes))
	for _, name := range cfg.Passes {
		selected[name] = true
	}
	for _, p := range Passes() {
		if len(selected) > 0 && !selected[p.Name] {
			continue
		}
		r.Diagnostics = append(r.Diagnostics, p.Run(ctx)...)
	}
	sortDiagnostics(r.Diagnostics)
	r.Diagnostics = dedupeDiagnostics(r.Diagnostics)
	return r
}

// dedupeDiagnostics removes exact duplicates from a sorted slice. Passes
// anchored at shared model elements (identical sibling transitions, a path
// read in several clauses) can re-derive the same finding once per
// viewpoint; repeating it doubles the counts without adding information.
func dedupeDiagnostics(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for i, d := range ds {
		if i > 0 && d == ds[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// sortDiagnostics orders diagnostics deterministically: by code, then
// location, then message.
func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Loc.Diagram != b.Loc.Diagram {
			return a.Loc.Diagram < b.Loc.Diagram
		}
		if a.Loc.Element != b.Loc.Element {
			return a.Loc.Element < b.Loc.Element
		}
		if a.Loc.Detail != b.Loc.Detail {
			return a.Loc.Detail < b.Loc.Detail
		}
		return a.Message < b.Message
	})
}

// Count returns the number of diagnostics at the given severity.
func (r *Report) Count(s Severity) int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// HasErrors reports whether any diagnostic is an Error.
func (r *Report) HasErrors() bool { return r.Count(Error) > 0 }

// ByCode returns the diagnostics carrying the given code.
func (r *Report) ByCode(code string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

// Render writes the report in the one-line-per-diagnostic text format,
// ending with a summary line. The output is deterministic.
func (r *Report) Render() string {
	var sb strings.Builder
	for _, d := range r.Diagnostics {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%d error(s), %d warning(s), %d info(s)\n",
		r.Count(Error), r.Count(Warning), r.Count(Info))
	return sb.String()
}

// RenderJSON renders the report as indented JSON with a stable field
// order.
func (r *Report) RenderJSON() (string, error) {
	type payload struct {
		Diagnostics []Diagnostic `json:"diagnostics"`
		Errors      int          `json:"errors"`
		Warnings    int          `json:"warnings"`
		Infos       int          `json:"infos"`
	}
	ds := r.Diagnostics
	if ds == nil {
		ds = []Diagnostic{}
	}
	b, err := json.MarshalIndent(payload{
		Diagnostics: ds,
		Errors:      r.Count(Error),
		Warnings:    r.Count(Warning),
		Infos:       r.Count(Info),
	}, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}
