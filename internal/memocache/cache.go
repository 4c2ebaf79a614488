package memocache

import "facile/internal/obs"

// Entry is one specialized action cache entry: the key (the serialized
// run-time static state the step started from) and the recorded action
// graph of engine node type N that the step executed.
type Entry[N any] struct {
	Key   string
	First *N
	Gen   uint64 // gauge generation at install
	Bytes uint64 // bytes charged against the gauge for this entry

	// CVer versions the entry's derived compiled-replay state: any
	// mutation of the recorded chain (fault injection, invalidation)
	// bumps it, so stale superinstructions are discarded and the mutated
	// chain is re-validated before its next replay.
	CVer uint64
}

// Cache is the specialized action cache with clear-when-full (§6.1). M is
// read directly by the engines' lookups and statistics; every mutation goes
// through the methods, which keep the gauge and the recorder truthful.
type Cache[N any] struct {
	M   map[string]*Entry[N]
	G   Gauge
	rec *obs.Recorder
}

// NewCache returns an empty cache capped at capBytes (0 = unlimited) that
// reports invalidations and clears to rec (nil = none).
func NewCache[N any](capBytes uint64, rec *obs.Recorder) *Cache[N] {
	return &Cache[N]{
		M:   make(map[string]*Entry[N]),
		G:   Gauge{CapBytes: capBytes},
		rec: rec,
	}
}

// Get returns the entry for key, or nil.
func (c *Cache[N]) Get(key string) *Entry[N] { return c.M[key] }

// EntryBytes is the accounting model's per-entry overhead, charged on top
// of the key's length when an entry is installed.
const EntryBytes = 48

// Put installs e, charging its key and entry overhead, and clears the
// cache if the install overflowed the cap.
func (c *Cache[N]) Put(e *Entry[N]) {
	e.Gen = c.G.Gen
	if old := c.M[e.Key]; old != nil && old != e {
		// Re-recording a key (e.g. after a corrupt-key recovery re-ran a
		// step the cache already held) replaces the old entry; refund it or
		// its bytes stay charged forever.
		c.G.refund(old.Bytes)
		old.Bytes = 0
	}
	c.M[e.Key] = e
	c.Charge(e, EntryBytes+uint64(len(e.Key)))
	if c.G.CapBytes > 0 && c.G.Bytes > c.G.CapBytes {
		// Clear when full — checked after charging, so the cache clears
		// on the put that overflowed the cap (including the entry just
		// installed) rather than one put later. In-progress replays detect
		// stale entries via the generation.
		c.Clear()
	}
}

// Charge accounts n freshly memoized bytes to the occupancy and the
// monotonic total and, when the bytes belong to a particular entry, to that
// entry — so a later invalidation can refund exactly what the entry
// charged.
func (c *Cache[N]) Charge(e *Entry[N], n uint64) {
	if e != nil {
		e.Bytes += n
	}
	c.G.Bytes += n
	c.G.TotalBytes += n
}

// Invalidate discards entry e after a fault, refunding its charged bytes.
// The refund happens only while e is still the cache's current entry for
// its key: after a clear the gauge was already reset, and refunding a stale
// entry would double-count. The generation moves either way so any
// replay-cached link to e re-validates and misses.
func (c *Cache[N]) Invalidate(e *Entry[N]) {
	e.CVer++ // discard derived compiled state along with the entry
	var refund uint64
	if cur, ok := c.M[e.Key]; ok && cur == e {
		delete(c.M, e.Key)
		refund = e.Bytes
	}
	e.Bytes = 0
	c.G.refund(refund)
	c.G.Gen++
	c.G.Invalidations++
	c.rec.Event(obs.EvInvalidation, refund)
}

// Clear discards the whole cache, as clear-when-full would: occupancy
// resets and the generation moves so in-flight replays drop their cached
// links.
func (c *Cache[N]) Clear() {
	freed := c.G.Bytes
	c.M = make(map[string]*Entry[N])
	c.G.Bytes = 0
	c.G.Gen++
	c.G.Clears++
	c.rec.Event(obs.EvClearWhenFull, freed)
}

// Warm is a detached action cache. The cache is a pure acceleration
// structure (every entry is re-derivable by the slow simulator), so a
// finished engine can hand it to a fresh one running the same program under
// the same configuration, letting a job server amortize specialization
// cost across jobs instead of only within one run — the compounding the
// paper's memoization economics want. It is immutable from the holder's
// point of view: only the engine that adopts it may mutate the entries,
// and ownership transfers on Adopt, so a Warm must never be adopted twice
// (the mutations would race).
type Warm[N any] struct {
	m     map[string]*Entry[N]
	bytes uint64
	gen   uint64
	codec *Codec[N]
}

// Entries reports the number of cached entries.
func (wc *Warm[N]) Entries() uint64 {
	if wc == nil {
		return 0
	}
	return uint64(len(wc.m))
}

// Bytes reports the occupancy charged for the cached entries (accounting
// model, see Table 2).
func (wc *Warm[N]) Bytes() uint64 {
	if wc == nil {
		return 0
	}
	return wc.bytes
}

// Detach removes and returns the cache's entries, leaving an empty cache
// behind (occupancy refunded, monotonic totals kept). It returns nil when
// the cache holds nothing. codec is how the detached cache serializes.
func (c *Cache[N]) Detach(codec *Codec[N]) *Warm[N] {
	if len(c.M) == 0 {
		return nil
	}
	wc := &Warm[N]{m: c.M, bytes: c.G.Bytes, gen: c.G.Gen, codec: codec}
	c.M = make(map[string]*Entry[N])
	c.G.Bytes = 0
	return wc
}

// Adopt installs a detached cache into an engine that has not yet recorded
// or replayed anything (ran reports whether it has). It refuses (returning
// false) a nil/empty cache, a cache exceeding this cache's cap, a non-empty
// cache, or an engine that already ran. The adopted occupancy counts
// toward clear-when-full but not toward this run's TotalBytes: stats stay
// per-run while the occupancy gauge stays truthful.
func (c *Cache[N]) Adopt(wc *Warm[N], ran bool) bool {
	if wc == nil || len(wc.m) == 0 || len(c.M) != 0 || ran {
		return false
	}
	if c.G.CapBytes > 0 && wc.bytes > c.G.CapBytes {
		return false
	}
	c.M = wc.m
	c.G.Bytes = wc.bytes
	// Preserve the generation the entries' internal links were tagged
	// with, so replay-cached links re-validate instead of all missing.
	c.G.Gen = wc.gen
	wc.m = nil
	wc.bytes = 0
	return true
}
