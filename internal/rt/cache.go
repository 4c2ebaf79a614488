package rt

import (
	"encoding/binary"

	"facile/internal/memocache"
)

// node is one action in the specialized action cache: an executed dynamic
// basic block, identified by its action number (the block ID), plus the
// run-time static placeholder data its dynamic instructions consume.
// Dynamic-result nodes (dynamic branches and dynamic next-step arguments)
// fork by observed value; end-of-step nodes carry the global lifts and the
// link to the next cache entry (the paper's INDEX action).
type node struct {
	blockID int32
	data    []int64 // placeholder values, in dynamic-segment order
	next    *node
	forks   []nfork

	// end-of-step (DTRet) only:
	nextKey string
	link    *centry
	linkGen uint64

	// Derived compiled-replay state (see compile.go): the superinstruction
	// headed by this node, valid only while fusedVer equals the owning
	// entry's cver. Never serialized — the snapshot and warm codecs
	// enumerate fields explicitly — and rebuilt lazily after warm adoption.
	fused    *fusedRun
	fusedVer uint64
}

type nfork struct {
	val  int64
	next *node
}

func (n *node) findFork(v int64) (*node, bool) {
	for i := range n.forks {
		if n.forks[i].val == v {
			return n.forks[i].next, true
		}
	}
	return nil, false
}

// centry is one specialized action cache entry, keyed by the serialized
// run-time static arguments of main; acache is the cache itself. Both are
// the memocache core, shared with internal/arch/fastsim.
type (
	centry = memocache.Entry[node]
	acache = memocache.Cache[node]
)

// Byte-accounting model for the cache-size cap and the Table 2 metric (the
// per-entry overhead is memocache.EntryBytes).
const (
	nodeBytes = 72
	forkBytes = 24
	valBytes  = 8
)

// buildKey serializes the run-time static inputs of main — the integer
// arguments and the contents of every queue parameter — into the action
// cache key. The encoding is invertible: miss recovery restores main's
// arguments from the key (paper §2.1: "reads its static input from the
// cache entry's index key").
func buildKey(argI []int64, argQ []*Queue) string {
	n := 0
	for range argI {
		n += binary.MaxVarintLen64
	}
	for _, q := range argQ {
		n += binary.MaxVarintLen64 * (1 + len(q.data))
	}
	buf := make([]byte, n)
	off := 0
	for _, v := range argI {
		off += binary.PutVarint(buf[off:], v)
	}
	for _, q := range argQ {
		off += binary.PutUvarint(buf[off:], uint64(q.Size()))
		for _, v := range q.data {
			off += binary.PutVarint(buf[off:], v)
		}
	}
	return string(buf[:off])
}

// validKey reports whether key would parse as main's run-time static
// arguments, without mutating anything. The fast simulator uses it to
// vet a recorded successor key before adopting it — a corrupt key caught
// here is recoverable; one caught after adoption is not.
func validKey(key string, nArgI int, argQ []*Queue) bool {
	buf := []byte(key)
	off := 0
	for i := 0; i < nArgI; i++ {
		_, k := binary.Varint(buf[off:])
		if k <= 0 {
			return false
		}
		off += k
	}
	for _, q := range argQ {
		sz, k := binary.Uvarint(buf[off:])
		if k <= 0 || sz > uint64(q.Cap()) {
			return false
		}
		off += k
		for j := 0; j < int(sz)*q.Width(); j++ {
			_, k := binary.Varint(buf[off:])
			if k <= 0 {
				return false
			}
			off += k
		}
	}
	return off == len(buf)
}

// parseKey restores main's arguments from a cache key.
func parseKey(key string, argI []int64, argQ []*Queue) bool {
	buf := []byte(key)
	off := 0
	for i := range argI {
		v, k := binary.Varint(buf[off:])
		if k <= 0 {
			return false
		}
		argI[i] = v
		off += k
	}
	for _, q := range argQ {
		sz, k := binary.Uvarint(buf[off:])
		if k <= 0 || sz > uint64(q.Cap()) {
			return false
		}
		off += k
		q.data = q.data[:0]
		for j := 0; j < int(sz)*q.Width(); j++ {
			v, k := binary.Varint(buf[off:])
			if k <= 0 {
				return false
			}
			q.data = append(q.data, v)
			off += k
		}
	}
	return off == len(buf)
}
