package rt

import "facile/internal/faults"

// Test hooks for the external rt_test package.

// SetInjector replaces the machine's fault injector between Run calls.
func (m *Machine) SetInjector(ij *faults.Injector) { m.opt.Inject = ij }

// NextEntryLinked reports whether the cache entry for the next step holds,
// on its recorded spine, a DTRet node whose successor link is current —
// the state in which replay skips re-vetting the successor key.
func (m *Machine) NextEntryLinked() bool {
	e := m.ac.get(m.curKey)
	if e == nil {
		return false
	}
	for n, hops := e.first, 0; n != nil && hops < 256; hops++ {
		if n.nextKey != "" {
			return n.link != nil && n.linkGen == m.ac.g.Gen
		}
		n = spineNext(n)
	}
	return false
}
