package contract

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"cloudmon/internal/ocl"
)

// Digest returns a stable content digest of the contract: SHA-256 over a
// deterministic textual rendering of the trigger, URI, every case's
// clauses (pre, post, guard, effect, transition endpoints, SecReq tags)
// and the combined pre/post formulas. Two contracts digest equal exactly
// when they would make the same decisions, so the digest — stamped on
// every audit record — binds a verdict to the contract version that
// produced it; evidence replay refuses to compare across versions.
// Generate computes it once, from the contract's one rendering.
func (c *Contract) Digest() string {
	if c.digest != "" {
		return c.digest
	}
	return digestOf(c.appendDigestInput(nil, func(e ocl.Expr) string { return fmt.Sprintf("%s", e) }))
}

// appendDigestInput appends the text the contract digest hashes to b,
// text giving each formula's rendering.
func (c *Contract) appendDigestInput(b []byte, text func(ocl.Expr) string) []byte {
	b = appendLine(b, "cloudmon.contract/v1")
	b = appendLine(b, "trigger ", string(c.Trigger.Method), "(", c.Trigger.Resource, ")")
	b = appendLine(b, "uri ", c.URI)
	for _, cs := range c.Cases {
		t := cs.Transition
		b = appendLine(b, "case ", t.From, "->", t.To, " on ", string(t.Trigger.Method), "(", t.Trigger.Resource, ")")
		b = appendLine(b, "secreqs ", strings.Join(t.SecReqs, ","))
		b = appendLine(b, "pre ", text(cs.Pre))
		b = appendLine(b, "post ", text(cs.Post))
		b = appendLine(b, "guard ", text(cs.Guard))
		b = appendLine(b, "effect ", text(cs.Effect))
	}
	b = appendLine(b, "pre ", text(c.Pre))
	b = appendLine(b, "post ", text(c.Post))
	return appendLine(b, "secreqs ", strings.Join(c.SecReqs, ","))
}

// appendLine appends the parts and a newline to b.
func appendLine(b []byte, parts ...string) []byte {
	for _, p := range parts {
		b = append(b, p...)
	}
	return append(b, '\n')
}

// digestOf returns the "sha256:<hex>" digest of input.
func digestOf(input []byte) string {
	sum := sha256.Sum256(input)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Digest returns a stable content digest of the whole set: SHA-256 over
// the per-contract digests in trigger order.
func (s *Set) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "cloudmon.contract-set/v1\n")
	for _, c := range s.Contracts {
		fmt.Fprintf(h, "%s %s\n", c.Trigger, c.Digest())
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
