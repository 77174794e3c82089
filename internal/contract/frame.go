// The compiled engine's runtime state: a Frame of generation-stamped
// value slots, one per state path the contract's plan can fetch, plus
// iterator registers and an append-only arena for collection results.
// A frame is a monitored request's one state store: the pre phase fills
// its current bank, BeginPost turns that bank into the pre-state and
// starts an empty one for the post-state, and the verdict's snapshots
// are read back out of the banks. Frames are pooled per Compiled
// artifact so a warmed monitor evaluates contracts without allocating.
package contract

import (
	"cloudmon/internal/ocl"
)

// Demand is the compiled engine's demand signal: a program reached a
// state-path slot that has not been filled this evaluation. Demands are
// preallocated per slot at compile time, so signalling one costs nothing;
// the demand loop (internal/monitor) fetches the path, fills the slot and
// re-runs the program.
type Demand struct {
	// Path is the dotted state path the program demanded.
	Path string
	// Index is the slot index in the Compiled path table.
	Index int
	// Pre marks a pre-state (old value) demand; false is current state.
	Pre bool
}

// Error implements the error interface.
func (d *Demand) Error() string {
	if d.Pre {
		return "contract: pre-state path " + d.Path + " not resolved"
	}
	return "contract: state path " + d.Path + " not resolved"
}

// slot is one state-path value. gen stamps the fill: it is valid when it
// equals the bank's generation, so bumping the generation empties the
// whole bank in O(1).
type slot struct {
	val     ocl.Value
	gen     uint64
	present bool
}

// Frame is the mutable evaluation state of one monitored request. It is
// not safe for concurrent use; obtain one per request from
// Compiled.NewFrame and return it exactly once with Compiled.Release.
type Frame struct {
	c *Compiled
	// cur and pre are the current- and pre-state slot banks, indexed by
	// the Compiled path table.
	cur, pre []slot
	// curGen/preGen are the banks' fill generations: a slot is filled iff
	// its gen matches. Both are drawn from epoch, which only increases,
	// so a bank swapped by BeginPost can never match a stale stamp.
	curGen, preGen, epoch uint64
	// hasPre reports whether a pre-state environment is bound: pre()/
	// @pre without one is ocl.ErrNoPreState, exactly as in the tree walk.
	hasPre bool
	// live is set while the frame is out of the pool; Release refuses a
	// frame that is not, because a twice-pooled frame would hand one
	// request's state to two requests at once.
	live bool
	// regs holds iterator-variable bindings, indexed by lexical depth.
	regs []ocl.Value
	// arena backs collection results built during evaluation
	// (select/reject/collect). It is append-only within one evaluation
	// and recycled across evaluations, so the steady state allocates
	// nothing; results alias it and die with the frame's reuse.
	arena []ocl.Value
}

// nextGen hands out a fresh generation.
func (fr *Frame) nextGen() uint64 {
	fr.epoch++
	return fr.epoch
}

// Reset empties both banks and recycles the arena.
func (fr *Frame) Reset() {
	fr.curGen = fr.nextGen()
	fr.preGen = fr.nextGen()
	fr.hasPre = false
	fr.arena = fr.arena[:0]
}

// SetCur fills the current-state slot for path (present=false marks it
// fetched but absent, resolving to Undefined). Every path the plan names
// has a slot (TestCompiledSlotsCoverPlanPaths); others are ignored.
func (fr *Frame) SetCur(path string, v ocl.Value, present bool) {
	if i, ok := fr.c.idx[path]; ok {
		fr.cur[i] = slot{val: v, gen: fr.curGen, present: present}
	}
}

// SetCurSlot fills current-state slot i directly. Callers that resolved
// the path table once (Compiled.Paths order, or a Demand's Index) fill
// per request without re-hashing path strings.
func (fr *Frame) SetCurSlot(i int, v ocl.Value, present bool) {
	fr.cur[i] = slot{val: v, gen: fr.curGen, present: present}
}

// Cur reports the current-state slot for path: its value, whether the
// value is present, and whether the slot is filled at all.
func (fr *Frame) Cur(path string) (v ocl.Value, present, filled bool) {
	return lookup(fr.c.idx, fr.cur, fr.curGen, path)
}

// Pre is Cur for the pre-state bank.
func (fr *Frame) Pre(path string) (v ocl.Value, present, filled bool) {
	return lookup(fr.c.idx, fr.pre, fr.preGen, path)
}

func lookup(idx map[string]int, bank []slot, gen uint64, path string) (ocl.Value, bool, bool) {
	i, ok := idx[path]
	if !ok || bank[i].gen != gen {
		return ocl.Value{}, false, false
	}
	return bank[i].val, bank[i].present, true
}

// CurEnv copies the current bank's present values into a new map: the
// state the request observed, as a verdict records it. Filled-but-absent
// slots are left out, which is how ocl.MapEnv spells Undefined.
func (fr *Frame) CurEnv() ocl.MapEnv {
	env := make(ocl.MapEnv, len(fr.cur))
	for i := range fr.cur {
		if fr.cur[i].gen == fr.curGen && fr.cur[i].present {
			env[fr.c.paths[i]] = fr.cur[i].val
		}
	}
	return env
}

// BeginPost turns the frame around for the post-check: the current bank,
// which holds the pre-state as fetched, becomes the pre-state bank, and an
// empty current bank starts the post-state. Nothing is copied.
func (fr *Frame) BeginPost() {
	fr.cur, fr.pre = fr.pre, fr.cur
	fr.preGen = fr.curGen
	fr.curGen = fr.nextGen()
	fr.hasPre = true
}

// Filled reports whether the demanded slot has been filled — the demand
// loop's progress guard (a fetch that does not fill its slot would loop
// forever).
func (fr *Frame) Filled(d *Demand) bool {
	if d.Pre {
		return fr.pre[d.Index].gen == fr.preGen
	}
	return fr.cur[d.Index].gen == fr.curGen
}

// loadCur reads a current-state slot.
func (fr *Frame) loadCur(i int) (ocl.Value, error) {
	s := &fr.cur[i]
	if s.gen != fr.curGen {
		return ocl.Value{}, fr.c.curDemand[i]
	}
	if !s.present {
		return ocl.Value{Kind: ocl.KindUndefined}, nil
	}
	return s.val, nil
}

// loadPre reads a pre-state slot.
func (fr *Frame) loadPre(i int) (ocl.Value, error) {
	if !fr.hasPre {
		return ocl.Value{}, ocl.ErrNoPreState
	}
	s := &fr.pre[i]
	if s.gen != fr.preGen {
		return ocl.Value{}, fr.c.preDemand[i]
	}
	if !s.present {
		return ocl.Value{Kind: ocl.KindUndefined}, nil
	}
	return s.val, nil
}
