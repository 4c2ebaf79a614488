package memocache

import (
	"fmt"
	"sort"

	"facile/internal/snapshot"
)

// Warm-cache serialization: a detached cache round-trips through the
// snapshot codec so a job server can persist lineage caches across process
// restarts (internal/cachestore). The framing — format version, generation,
// total bytes, entry count, then each entry's key, charged bytes and action
// graph in key order — is shared by both engines, so equal caches yield
// equal bytes; the per-node encoding is the engine's Codec. Replay-time
// link fields are never written: they are an intra-process optimization
// re-established lazily by key lookup, and a loaded cache must never alias
// entries from a previous process.

// MaxWarmEntries bounds the entry and fork counts a load will reconstruct,
// a backstop against a corrupt count field allocating unbounded memory
// before the codec notices the truncation.
const MaxWarmEntries = 1 << 24

// Codec is an engine's warm-stream node encoding.
type Codec[N any] struct {
	Engine  string // error-message prefix
	Version uint64 // the engine's WarmFormatVersion

	// SaveNode writes the node graph rooted at n (nil included); LoadNode
	// reads one back, reporting any structural inconsistency.
	SaveNode func(w *snapshot.Writer, n *N)
	LoadNode func(r *snapshot.Reader) (*N, error)
}

// Save serializes the detached cache. The walk is read-only: the cache
// stays parked and adoptable afterwards.
func (wc *Warm[N]) Save(w *snapshot.Writer) {
	w.U64(wc.codec.Version)
	w.U64(wc.gen)
	w.U64(wc.bytes)
	w.U64(uint64(len(wc.m)))
	keys := make([]string, 0, len(wc.m))
	for k := range wc.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := wc.m[k]
		w.String(e.Key)
		w.U64(e.Bytes)
		wc.codec.SaveNode(w, e.First)
	}
}

// LoadWarm reconstructs a detached cache from its serialized form. Any
// structural inconsistency — version skew, a byte-accounting mismatch, a
// truncated stream, or a node the codec rejects — is an error; the caller
// treats it like any other corruption (cold start), never adopting a
// partially decoded cache.
func LoadWarm[N any](r *snapshot.Reader, codec *Codec[N]) (*Warm[N], error) {
	if v := r.U64(); r.Err() == nil && v != codec.Version {
		return nil, fmt.Errorf("%s: warm-cache format version %d, this build reads %d", codec.Engine, v, codec.Version)
	}
	wc := &Warm[N]{m: make(map[string]*Entry[N]), codec: codec}
	wc.gen = r.U64()
	wc.bytes = r.U64()
	n := r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > MaxWarmEntries {
		return nil, fmt.Errorf("%s: warm cache claims %d entries", codec.Engine, n)
	}
	var sum uint64
	for i := uint64(0); i < n; i++ {
		e := &Entry[N]{Key: r.String(), Gen: wc.gen}
		e.Bytes = r.U64()
		first, err := codec.LoadNode(r)
		if err != nil {
			return nil, err
		}
		e.First = first
		if r.Err() != nil {
			return nil, r.Err()
		}
		if e.First == nil {
			return nil, fmt.Errorf("%s: warm cache entry %q is empty", codec.Engine, e.Key)
		}
		wc.m[e.Key] = e
		sum += e.Bytes
	}
	if sum != wc.bytes {
		return nil, fmt.Errorf("%s: warm cache accounting mismatch: entries sum to %d bytes, header says %d", codec.Engine, sum, wc.bytes)
	}
	if uint64(len(wc.m)) != n {
		return nil, fmt.Errorf("%s: warm cache holds %d entries after dedup, header says %d", codec.Engine, len(wc.m), n)
	}
	return wc, nil
}
