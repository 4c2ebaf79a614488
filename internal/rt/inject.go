package rt

import "facile/internal/faults"

// Deterministic fault injection: corrupt a cache entry just before it
// replays, so tests can drive every recovery path on demand. The corruption
// mirrors what a real defect (memory error, stale pointer, encoding bug)
// would produce; recovery must keep simulated results identical to the
// slow simulator's.

// spineNext follows the recorded chain's spine: the next link for
// sequential nodes, the first fork branch otherwise.
func spineNext(n *node) *node {
	if n.next != nil {
		return n.next
	}
	if len(n.forks) > 0 {
		return n.forks[0].next
	}
	return nil
}

func (m *Machine) injectFault(e *centry, inj faults.Injection) {
	// Any mutation of the recorded chain invalidates the derived compiled
	// state: bump the entry's version so stale superinstructions are
	// discarded and the corruption is re-validated on the next replay.
	e.CVer++
	ij := m.opt.Inject
	switch inj {
	case faults.InjBreakChain:
		// Sever a sequential link mid-chain (BrokenChain on replay).
		var cands []*node
		for n, hops := e.First, 0; n != nil && hops < 64; hops++ {
			if n.next != nil {
				cands = append(cands, n)
			}
			n = spineNext(n)
		}
		if len(cands) == 0 {
			e.First = nil
			return
		}
		cands[int(ij.Rand()%uint64(len(cands)))].next = nil

	case faults.InjFlipFork:
		// Corrupt a recorded dynamic-result value so the live value misses
		// its fork: recovery treats it as a benign first-time result.
		for n, hops := e.First, 0; n != nil && hops < 64; hops++ {
			if len(n.forks) > 0 {
				f := int(ij.Rand() % uint64(len(n.forks)))
				n.forks[f].val ^= 1 << 62
				return
			}
			n = spineNext(n)
		}
		e.First = nil

	case faults.InjTruncate:
		// Truncate recorded state: either a node's placeholder data (caught
		// by the per-node length check) or a step's successor key (caught by
		// validKey at the step boundary). The surviving key byte gets its
		// continuation bit set so the truncation can never still parse.
		wantKey := ij.Rand()&1 == 0
		var ret *node
		for n, hops := e.First, 0; n != nil && hops < 256; hops++ {
			if !wantKey && len(n.data) > 0 {
				n.data = n.data[:len(n.data)/2]
				return
			}
			if n.nextKey != "" {
				ret = n
			}
			n = spineNext(n)
		}
		if ret != nil && len(ret.nextKey) > 0 {
			b := []byte(ret.nextKey[:(len(ret.nextKey)+1)/2])
			b[len(b)-1] |= 0x80
			ret.nextKey = string(b)
			ret.link = nil // a cached link must not bypass the corrupt key
			return
		}
		e.First = nil

	case faults.InjGenBump:
		// Force a mid-replay generation bump, as clear-when-full would.
		m.ac.Clear()
	}
}
