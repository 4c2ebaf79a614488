package rt

import (
	"fmt"

	"facile/internal/memocache"
	"facile/internal/snapshot"
)

// Warm-cache sharing for the Facile rt machines (see memocache.Warm): a
// finished machine's cache can seed a fresh machine running the same
// compiled description over the same program and options. The
// detach/adopt logic and the stream framing are the memocache core shared
// with internal/arch/fastsim; this file holds only rt's node codec, which
// never writes the replay-time link/linkGen fields.

// WarmCache is a detached rt action cache.
type WarmCache = memocache.Warm[node]

// WarmFormatVersion identifies the serialized node layout. Bump it on any
// change to the node struct's persisted fields.
const WarmFormatVersion = 1

var warmCodec = &memocache.Codec[node]{
	Engine:   "rt",
	Version:  WarmFormatVersion,
	SaveNode: saveNode,
	LoadNode: loadNode,
}

// DetachCache removes and returns the machine's action cache (see
// memocache.Cache.Detach).
func (m *Machine) DetachCache() *WarmCache { return m.ac.Detach(warmCodec) }

// AdoptCache installs a previously detached cache into a machine that has
// not stepped yet (see memocache.Cache.Adopt). The caller must guarantee wc
// was built by the same compiled description over the same program and
// cap.
func (m *Machine) AdoptCache(wc *WarmCache) bool {
	return m.ac.Adopt(wc, m.stats.SlowSteps != 0 || m.stats.Replays != 0)
}

// LoadWarmCache reconstructs a detached cache from its serialized form
// (see memocache.LoadWarm).
func LoadWarmCache(r *snapshot.Reader) (*WarmCache, error) {
	return memocache.LoadWarm(r, warmCodec)
}

func saveNode(w *snapshot.Writer, n *node) {
	if n == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.I64(int64(n.blockID))
	w.I64s(n.data)
	w.String(n.nextKey)
	w.U64(uint64(len(n.forks)))
	for i := range n.forks {
		w.I64(n.forks[i].val)
		saveNode(w, n.forks[i].next)
	}
	saveNode(w, n.next)
}

func loadNode(r *snapshot.Reader) (*node, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	n := &node{}
	n.blockID = int32(r.I64())
	n.data = r.I64s()
	n.nextKey = r.String()
	nf := r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nf > memocache.MaxWarmEntries {
		return nil, fmt.Errorf("rt: warm cache node claims %d forks", nf)
	}
	for i := uint64(0); i < nf; i++ {
		val := r.I64()
		next, err := loadNode(r)
		if err != nil {
			return nil, err
		}
		n.forks = append(n.forks, nfork{val: val, next: next})
	}
	next, err := loadNode(r)
	if err != nil {
		return nil, err
	}
	n.next = next
	return n, r.Err()
}
