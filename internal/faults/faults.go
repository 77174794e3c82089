// Package faults is the fault-injection layer of the load and chaos
// harness: a composable http.Handler / http.RoundTripper middleware that
// perturbs traffic between the monitor and the cloud with the failure
// modes a real deployment sees — added latency, 5xx bursts, connection
// resets, hangs that outlive the caller's deadline, truncated or malformed
// JSON bodies, and expired-token responses.
//
// Faults are driven by a Profile: an ordered list of Rules, each matching
// a method/path slice of the traffic and firing either probabilistically
// (Probability, drawn from a seeded RNG so a profile replays the same
// fault schedule for the same request order) or deterministically (Every
// Nth matching request). A fired rule can extend over a Burst of
// consecutive matching requests, modelling correlated outages rather than
// independent coin flips.
//
// The same Profile wires into both ends of the stack: cmd/cloudsim wraps
// its handler with Injector.Middleware (faults on the wire), and the
// in-process loadgen deployment wraps the monitor's cloud transport with
// Injector.RoundTripper (faults between monitor and cloud, no sockets
// needed). Injected faults are tallied per kind for reports and test
// assertions.
package faults

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable failure modes.
type Kind string

// Fault kinds.
const (
	// KindLatency delays the request, then serves it normally.
	KindLatency Kind = "latency"
	// KindStatus answers with a synthesized error status (default 503)
	// without reaching the backend.
	KindStatus Kind = "status"
	// KindReset aborts the exchange mid-flight, as a closed TCP
	// connection would: the caller sees a transport error, never a
	// response, and cannot know whether the request was applied.
	KindReset Kind = "reset"
	// KindTimeout holds the request until the caller's context deadline
	// expires (bounded by the rule's LatencyMS cap), then aborts it.
	KindTimeout Kind = "timeout"
	// KindTruncate serves the backend's response with the body cut off
	// mid-document — syntactically broken JSON.
	KindTruncate Kind = "truncate"
	// KindMalformed replaces the backend's response body with
	// well-formed-looking but unparsable JSON.
	KindMalformed Kind = "malformed"
	// KindTokenExpiry answers 401 with a keystone-style authentication
	// error, as an expired service token would.
	KindTokenExpiry Kind = "token-expiry"
)

// valid reports whether the kind is one of the defined fault kinds.
func (k Kind) valid() bool {
	switch k {
	case KindLatency, KindStatus, KindReset, KindTimeout, KindTruncate, KindMalformed, KindTokenExpiry:
		return true
	}
	return false
}

// Rule injects one fault kind into a slice of the traffic.
type Rule struct {
	// Kind selects the failure mode. Required.
	Kind Kind `json:"kind"`
	// Method restricts the rule to one HTTP method ("" = any).
	Method string `json:"method,omitempty"`
	// Path restricts the rule to request paths containing this substring
	// ("" = any).
	Path string `json:"path,omitempty"`
	// Probability fires the rule on each matching request with this
	// chance (0..1), drawn from the profile's seeded RNG.
	Probability float64 `json:"probability,omitempty"`
	// Every fires the rule deterministically on every Nth matching
	// request (1 = every request). When set it overrides Probability.
	Every int `json:"every,omitempty"`
	// Burst extends a firing over this many consecutive matching
	// requests (0 or 1 = a single request), modelling correlated
	// outages such as a 5xx window.
	Burst int `json:"burst,omitempty"`
	// LatencyMS is the injected delay for latency faults and the maximum
	// hang for timeout faults (default DefaultTimeoutCapMS).
	LatencyMS int `json:"latency_ms,omitempty"`
	// JitterMS widens latency faults to LatencyMS + [0, JitterMS].
	JitterMS int `json:"jitter_ms,omitempty"`
	// Status is the synthesized code for status faults (default 503).
	Status int `json:"status,omitempty"`
}

// DefaultTimeoutCapMS bounds a timeout fault when the caller has no
// deadline of its own, so an injected hang cannot wedge a run forever.
const DefaultTimeoutCapMS = 30_000

// matches reports whether the rule applies to the request.
func (r *Rule) matches(method, path string) bool {
	if r.Method != "" && r.Method != method {
		return false
	}
	if r.Path != "" && !contains(path, r.Path) {
		return false
	}
	return true
}

// contains is strings.Contains without the import (kept local so the hot
// decide path stays obviously allocation-free).
func contains(s, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Profile is a named, reproducible fault schedule.
type Profile struct {
	// Seed drives the probabilistic draws; the same seed over the same
	// request order replays the same fault sequence.
	Seed int64 `json:"seed"`
	// Rules are evaluated in order; the first rule that fires wins.
	Rules []Rule `json:"rules"`
}

// Validate checks the profile's rules.
func (p *Profile) Validate() error {
	if len(p.Rules) == 0 {
		return fmt.Errorf("faults: profile has no rules")
	}
	for i, r := range p.Rules {
		if !r.Kind.valid() {
			return fmt.Errorf("faults: rule %d has unknown kind %q", i, r.Kind)
		}
		if r.Probability < 0 || r.Probability > 1 {
			return fmt.Errorf("faults: rule %d probability %v outside [0,1]", i, r.Probability)
		}
		if r.Probability == 0 && r.Every <= 0 {
			return fmt.Errorf("faults: rule %d fires never (needs probability or every)", i)
		}
		if r.Every < 0 || r.Burst < 0 || r.LatencyMS < 0 || r.JitterMS < 0 {
			return fmt.Errorf("faults: rule %d has a negative knob", i)
		}
		if r.Status != 0 && (r.Status < 400 || r.Status > 599) {
			return fmt.Errorf("faults: rule %d status %d outside 4xx/5xx", i, r.Status)
		}
	}
	return nil
}

// ParseProfile decodes and validates a JSON profile.
func ParseProfile(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faults: parse profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadProfile reads a profile from a JSON file.
func LoadProfile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: load profile: %w", err)
	}
	return ParseProfile(data)
}

// ruleState is a rule plus its firing bookkeeping.
type ruleState struct {
	rule      Rule
	matched   int // matching requests seen (drives Every)
	burstLeft int // remaining requests of an active burst
}

// decision is one resolved injection: what to do to the current request.
type decision struct {
	kind   Kind
	delay  time.Duration // latency delay, or timeout cap
	status int
}

// Injector applies a profile to traffic. One injector serializes its
// decisions behind a mutex: the RNG draws consume in request order, which
// is what makes a seeded schedule reproducible.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rules    []*ruleState
	counts   map[Kind]uint64
	disabled atomic.Bool
}

// NewInjector builds an injector for the profile. The profile must have
// been validated (ParseProfile/LoadProfile do so).
func NewInjector(p *Profile) *Injector {
	in := &Injector{
		rng:    rand.New(rand.NewSource(p.Seed)),
		counts: make(map[Kind]uint64, len(p.Rules)),
	}
	for _, r := range p.Rules {
		in.rules = append(in.rules, &ruleState{rule: r})
	}
	return in
}

// SetEnabled toggles injection; a disabled injector passes all traffic
// through untouched (harnesses use this to seed state before the chaos
// phase).
func (in *Injector) SetEnabled(v bool) { in.disabled.Store(!v) }

// decide resolves the fault (if any) for one request.
func (in *Injector) decide(method, path string) *decision {
	if in.disabled.Load() {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, st := range in.rules {
		r := &st.rule
		if !r.matches(method, path) {
			continue
		}
		st.matched++
		fire, fresh := false, false
		switch {
		case st.burstLeft > 0:
			st.burstLeft--
			fire = true
		case r.Every > 0:
			fire, fresh = st.matched%r.Every == 0, true
		default:
			fire, fresh = in.rng.Float64() < r.Probability, true
		}
		if !fire {
			continue
		}
		// Only a fresh firing opens a burst window; the window draining to
		// zero must not re-arm itself.
		if fresh && r.Burst > 1 {
			st.burstLeft = r.Burst - 1
		}
		d := &decision{kind: r.Kind}
		switch r.Kind {
		case KindLatency:
			ms := r.LatencyMS
			if r.JitterMS > 0 {
				ms += in.rng.Intn(r.JitterMS + 1)
			}
			d.delay = time.Duration(ms) * time.Millisecond
		case KindTimeout:
			capMS := r.LatencyMS
			if capMS <= 0 {
				capMS = DefaultTimeoutCapMS
			}
			d.delay = time.Duration(capMS) * time.Millisecond
		case KindStatus:
			d.status = r.Status
			if d.status == 0 {
				d.status = 503
			}
		}
		in.counts[r.Kind]++
		return d
	}
	return nil
}

// Counts returns the tally of injected faults per kind since construction.
func (in *Injector) Counts() map[string]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int, len(in.counts))
	for k, n := range in.counts {
		out[string(k)] = int(n)
	}
	return out
}

// Total returns the total number of injected faults.
func (in *Injector) Total() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, c := range in.counts {
		n += int(c)
	}
	return n
}
