package rt

import (
	"facile/internal/faults"
	"facile/internal/lang/ir"
)

// Test hooks for the external rt_test package.

// SetInjector replaces the machine's fault injector between Run calls.
func (m *Machine) SetInjector(ij *faults.Injector) { m.opt.Inject = ij }

// NextEntryLinked reports whether the cache entry for the next step holds,
// on its recorded spine, a DTRet node whose successor link is current —
// the state in which replay skips re-vetting the successor key.
func (m *Machine) NextEntryLinked() bool {
	e := m.ac.Get(m.curKey)
	if e == nil {
		return false
	}
	for n, hops := e.First, 0; n != nil && hops < 256; hops++ {
		if n.nextKey != "" {
			return n.link != nil && n.linkGen == m.ac.G.Gen
		}
		n = spineNext(n)
	}
	return false
}

// Program returns the compiled program the machine runs.
func (m *Machine) Program() *ir.Program { return m.p }

// DynCompiled reports whether block bi has a compiled dynamic segment.
func (m *Machine) DynCompiled(bi int) bool { return m.p.Blocks[bi].HasDyn && m.code[bi].ok }
