// Package memocache is the specialized action cache core shared by the two
// memoizing engines (internal/arch/fastsim and internal/rt): the entry and
// cache types with their byte accounting and clear-when-full policy, the
// detached warm cache with its stream framing, and the deterministic
// self-check sampler. Keeping them in one place guarantees the engines
// agree on when a capped cache clears, how fault invalidations interact
// with the generation counter that in-flight replays use to detect
// staleness, and what a warm stream looks like. The engines keep only what
// is theirs: node types, the per-node codec, replay, recovery and fault
// injection.
package memocache

// Gauge is a cache's byte occupancy against an optional cap, for the
// paper's clear-when-full policy (§6.1: "fixing a maximum cache size and
// clearing the cache when it fills"), and its monotonic totals. Cache
// methods keep it current; engines read it.
//
// Gen is the staleness generation: a replay that cached a direct link to an
// entry re-validates the link whenever Gen has moved. Both clears and fault
// invalidations bump Gen, so a discarded entry can never be re-entered
// through a stale link.
type Gauge struct {
	Bytes    uint64 // current occupancy (accounting model)
	CapBytes uint64 // 0 = unlimited
	Gen      uint64

	TotalBytes    uint64 // monotonic: everything ever memoized (Table 2)
	Clears        uint64
	Invalidations uint64 // entries discarded by fault recovery
}

// refund removes n bytes from the occupancy (the monotonic total is
// unaffected). Clamped so stale refunds after a clear cannot underflow.
func (g *Gauge) refund(n uint64) {
	if n > g.Bytes {
		n = g.Bytes
	}
	g.Bytes -= n
}
