package contract

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/slice"
	"cloudmon/internal/uml"
)

// goldenModels are the shipped models whose generated contracts are
// pinned: the paper's Cinder and Nova models and Cinder's SecReq-1.4
// audit slice.
func goldenModels(t *testing.T) map[string]func() *uml.Model {
	t.Helper()
	return map[string]func() *uml.Model{
		"cinder": paper.CinderModel,
		"nova":   paper.NovaModel,
		"cinder-secreq-1.4": func() *uml.Model {
			m, err := slice.Model(paper.CinderModel(), slice.BySecReqs("1.4"))
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
}

// goldenContract pins one generated contract: its digest and the SHA-256
// of its rendered pre- and post-condition texts.
type goldenContract struct {
	digest, pre, post string
}

// goldenSets pins every shipped model's generated contracts. Audit
// records carry the contract digest and the failing clause text, and
// replay counts a record whose digest differs as a contract mismatch, so
// a changed rendering byte orphans every existing trail and evidence
// pack. Change these only with a deliberate change to the contracts.
var goldenSets = map[string]struct {
	set       string
	contracts map[string]goldenContract
}{
	"cinder": {
		set: "sha256:2e0338ddd5c544882292b66d27bb1abc524acf725cf21b37979b987ceb65a26a",
		contracts: map[string]goldenContract{
			"DELETE(volume)": {"sha256:e3422a34576da88ab19870b3390599b9914f64f10e9b043c4055a276abc9c01b", "593b49ce083559ae2787b2b39b424e3396164a5f19c184fc41bfb26a9bda6416", "cbdd3752a0c6efb41a9db301bcf0a509fe807dc1ff6bfe9d239db063a0bb9ec2"},
			"GET(volume)":    {"sha256:d82669537528d8b48a99eafa90e7b4c279bf4298907411f4292d620161b340c9", "4d1799a21da45bfd97455e9624d2ec84aa7ca1ae70bc8d16203e9010c9d1c0c5", "aba8b3c71f290795fb0bcb40bf8e8e336c7e28366a214a71f3570e06a87c40f5"},
			"POST(volume)":   {"sha256:37dfbb05154f8ccde72271f54511aead8876af07a57a93cb2ef5dd183f19ccd2", "f3d2c8c1579c4c2ebcfb166aec557b8c28dda15893c38f37adebbc298d16dc42", "d9853f2e7e3a0597c9682a1cf3ff217141877cacaebda2f1788e01746f671ab8"},
			"PUT(volume)":    {"sha256:34ae4fefb68d97d8f349ee7862f96dbda16e619ae983e89a60056fc5e247cac3", "c592d5e1f4959a0a2a2762fecefbfc71e285035b690bb362cba47216de50d24d", "4211ea51f8d568d6633ea20c271679ae9118404adaeddd25ea2356b317f7c1b4"},
		},
	},
	"nova": {
		set: "sha256:729140c32ae9a0adedc4333bd802bf06f9385b13b45ba2f46bb7855bcf9b522b",
		contracts: map[string]goldenContract{
			"DELETE(server)": {"sha256:778dd10e14171ab6e5651a7d55afe005e4c1005dc45ed7efd8e9e480932b1a31", "7ed0a104c04c89e59f80b4c12e9d4578d87caa6ef3d68c1c42454922530908b5", "a4b63fbed417432ba0b8b356a132064f35371e4a01a7e066d9c0c9f41a7f0562"},
			"GET(server)":    {"sha256:dcbd892807ee464e8907b236920170f7ee0b41707963277d19b4774823f644ce", "8edb740969280ecf01b553d4987c82ae77c394156c5c271b22da0ffa7a7e52e8", "67d92d62c0380e83ccf7d0f4a7ab9bd8bcc881a0a82b78d8d3dc4bb09cba6e10"},
			"POST(server)":   {"sha256:0efcb9f439564cd89594e8e975d289f7320cb3ddf1c989ab8415b8816a90d5ca", "51c49a919b764a386defe0a9220ccd3895470b171ffba84c017342ff196edc0e", "b1b3174d17543fa938a4fa346161a40717e71eda06a28480c37952fdb211308d"},
		},
	},
	"cinder-secreq-1.4": {
		set: "sha256:0192683fd05e5668e21192b711dbf9a2f05ce40951ba9bd8f1d1eefb48500cb4",
		contracts: map[string]goldenContract{
			"DELETE(volume)": {"sha256:e3422a34576da88ab19870b3390599b9914f64f10e9b043c4055a276abc9c01b", "593b49ce083559ae2787b2b39b424e3396164a5f19c184fc41bfb26a9bda6416", "cbdd3752a0c6efb41a9db301bcf0a509fe807dc1ff6bfe9d239db063a0bb9ec2"},
		},
	},
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestGeneratedContractsGolden pins, for every shipped model, each
// contract's digest, the set digest and the SHA-256 of each contract's
// rendered pre- and post-condition.
func TestGeneratedContractsGolden(t *testing.T) {
	for name, model := range goldenModels(t) {
		want := goldenSets[name]
		set, err := Generate(model())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := set.Digest(); got != want.set {
			t.Errorf("%s: set digest %s, want %s", name, got, want.set)
		}
		if len(set.Contracts) != len(want.contracts) {
			t.Errorf("%s: %d contracts, want %d", name, len(set.Contracts), len(want.contracts))
		}
		for _, c := range set.Contracts {
			w, ok := want.contracts[c.Trigger.String()]
			if !ok {
				t.Errorf("%s: unexpected contract %s", name, c.Trigger)
				continue
			}
			if got := c.Digest(); got != w.digest {
				t.Errorf("%s %s: digest %s, want %s", name, c.Trigger, got, w.digest)
			}
			// The contract's one rendering (what verdicts and audit
			// records carry) and the ASTs' own.
			for _, text := range []string{c.PreText(), c.Pre.String()} {
				if got := sha256Hex(text); got != w.pre {
					t.Errorf("%s %s: pre text hashes to %s, want %s", name, c.Trigger, got, w.pre)
				}
			}
			for _, text := range []string{c.PostText(), c.Post.String()} {
				if got := sha256Hex(text); got != w.post {
					t.Errorf("%s %s: post text hashes to %s, want %s", name, c.Trigger, got, w.post)
				}
			}
		}
	}
}

// TestGenerateSharesNothingAcrossCalls: two Generate calls on equal
// models share no AST node and no compiled program, so nothing one
// assembly derives outlives it or serves the next.
func TestGenerateSharesNothingAcrossCalls(t *testing.T) {
	for name, model := range goldenModels(t) {
		a, err := Generate(model())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Generate(model())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nodes, progs := setParts(a)
		bNodes, bProgs := setParts(b)
		for e := range bNodes {
			if nodes[e] {
				t.Errorf("%s: AST node %s is shared by two Generate calls", name, e)
			}
		}
		for p := range bProgs {
			if progs[p] {
				t.Errorf("%s: a compiled program is shared by two Generate calls", name)
			}
		}
	}
}

// setParts collects every AST node a set's contracts reach and every
// compiled program of their plans.
func setParts(set *Set) (map[ocl.Expr]bool, map[*Program]bool) {
	nodes := map[ocl.Expr]bool{}
	add := func(e ocl.Expr) {
		ocl.Walk(e, func(n ocl.Expr) bool {
			nodes[n] = true
			return true
		})
	}
	progs := map[*Program]bool{}
	for _, c := range set.Contracts {
		add(c.Pre)
		add(c.Post)
		for _, cs := range c.Cases {
			add(cs.Pre)
			add(cs.Post)
			add(cs.Guard)
			add(cs.Effect)
		}
		cp := c.Plan().Compiled
		for i := 0; i < cp.Cases(); i++ {
			progs[cp.PreProgram(i)] = true
			progs[cp.PostProgram(i)] = true
		}
	}
	return nodes, progs
}
