package ocl

import (
	"fmt"
	"sort"
	"strings"
)

// VocabularyFunc reports whether a navigation path is known to the model.
// The contract generator derives one from the resource model so typos in
// analyst-written formulas are caught at generation time, not at runtime.
type VocabularyFunc func(path []string) bool

// UnknownPaths returns every free navigation path in the expression the
// vocabulary does not recognize, sorted and deduplicated, so one run
// surfaces every typo. Iterator variables are lexically scoped and exempt.
func UnknownPaths(e Expr, known VocabularyFunc) []string {
	seen := make(map[string]bool)
	var bad []string
	FreeNavs(e, func(n *Nav, _ bool) {
		dotted := strings.Join(n.Path, ".")
		if seen[dotted] {
			return
		}
		seen[dotted] = true
		if !known(n.Path) {
			bad = append(bad, dotted)
		}
	})
	sort.Strings(bad)
	return bad
}

// CheckVocabulary walks the expression and returns an error naming every
// free navigation path the vocabulary does not recognize (sorted,
// deduplicated). Iterator variables are lexically scoped and exempt.
func CheckVocabulary(e Expr, known VocabularyFunc) error {
	bad := UnknownPaths(e, known)
	switch len(bad) {
	case 0:
		return nil
	case 1:
		return fmt.Errorf("ocl: unknown navigation path %q", bad[0])
	default:
		quoted := make([]string, len(bad))
		for i, p := range bad {
			quoted[i] = fmt.Sprintf("%q", p)
		}
		return fmt.Errorf("ocl: unknown navigation paths %s", strings.Join(quoted, ", "))
	}
}

// CheckNoPre returns an error if the expression uses pre()/@pre. Used to
// validate pre-conditions and guards, which by definition have no pre-state.
func CheckNoPre(e Expr) error {
	if UsesPre(e) {
		return fmt.Errorf("ocl: pre() old-value reference not allowed here: %s", e)
	}
	return nil
}

// Complexity returns the number of AST nodes in the expression — a simple
// size metric used by the benchmarks (experiment E7 sweeps formula size).
func Complexity(e Expr) int {
	n := 0
	Walk(e, func(Expr) bool {
		n++
		return true
	})
	return n
}
