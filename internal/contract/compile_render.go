package contract

import (
	"fmt"
	"strings"
)

// RenderCompiled summarizes each contract's compiled artifact — the slot
// table, program counts and register bank. modelvet -compiled prints this
// so a model author can see what the monitor will actually execute per
// request.
func RenderCompiled(set *Set) string {
	var b strings.Builder
	for _, c := range set.Contracts {
		cp := c.Plan().Compiled
		fmt.Fprintf(&b, "%s %s\n", c.Trigger, c.URI)
		if cp == nil {
			fmt.Fprintf(&b, "  (not compiled)\n")
			continue
		}
		fmt.Fprintf(&b, "  programs: %d pre, %d post; %d iterator registers\n",
			cp.Cases(), cp.Cases(), cp.Registers())
		fmt.Fprintf(&b, "  slots (%d):\n", len(cp.Paths()))
		for i, p := range cp.Paths() {
			fmt.Fprintf(&b, "    [%d] %s\n", i, p)
		}
	}
	return b.String()
}
