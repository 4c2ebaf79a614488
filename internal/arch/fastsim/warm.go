package fastsim

// Warm-cache sharing (see memocache.Warm): a cache built by one run of a
// program is valid for any later run of the same program under the same
// configuration, every entry being re-derivable by the slow simulator. The
// detach/adopt logic and the stream framing are the memocache core shared
// with internal/rt; this file holds only fastsim's action codec, which
// never writes the replay-time link/linkGen fields.

import (
	"fmt"

	"facile/internal/isa"
	"facile/internal/memocache"
	"facile/internal/snapshot"
)

// WarmCache is a detached specialized action cache.
type WarmCache = memocache.Warm[action]

// WarmFormatVersion identifies the serialized action-tree layout. Bump it
// on any change to the action struct's persisted fields; a store record
// written by another version fails to adopt instead of replaying garbage.
const WarmFormatVersion = 1

var warmCodec = &memocache.Codec[action]{
	Engine:   "fastsim",
	Version:  WarmFormatVersion,
	SaveNode: saveAction,
	LoadNode: loadAction,
}

// DetachCache removes and returns the simulator's action cache (see
// memocache.Cache.Detach). Call it at a step boundary — conventionally
// after the run completes.
func (s *Sim) DetachCache() *WarmCache { return s.ac.Detach(warmCodec) }

// AdoptCache installs a previously detached cache into a simulator that
// has not yet recorded or replayed anything (see memocache.Cache.Adopt).
// The caller must guarantee wc was built over the same program and engine
// configuration (uarch config, step granularity, cache cap) — entries keyed
// by another program's pipeline states would replay the wrong actions.
func (s *Sim) AdoptCache(wc *WarmCache) bool {
	return s.ac.Adopt(wc, s.steps != 0 || s.replays != 0)
}

// LoadWarmCache reconstructs a detached cache from its serialized form
// (see memocache.LoadWarm); an out-of-range action kind is an error too.
func LoadWarmCache(r *snapshot.Reader) (*WarmCache, error) {
	return memocache.LoadWarm(r, warmCodec)
}

func saveAction(w *snapshot.Writer, a *action) {
	if a == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.U8(a.kind)
	w.U8(a.flags)
	w.U8(uint8(a.cls))
	w.U64(uint64(a.slot))
	w.U64(uint64(a.dcyc))
	w.U64(a.pc)
	w.U8(uint8(a.in.Op))
	w.U8(a.in.Rd)
	w.U8(a.in.Rs1)
	w.U8(a.in.Rs2)
	w.I64(a.in.Imm)
	w.Bool(a.in.HasImm)
	w.U64(uint64(a.in.Raw))
	w.String(a.nextKey)
	w.U64(uint64(len(a.forks)))
	for i := range a.forks {
		w.U64(a.forks[i].val)
		saveAction(w, a.forks[i].next)
	}
	saveAction(w, a.next)
}

func loadAction(r *snapshot.Reader) (*action, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	a := &action{}
	a.kind = r.U8()
	if r.Err() == nil && a.kind > aEnd {
		return nil, fmt.Errorf("fastsim: warm cache action kind %d out of range", a.kind)
	}
	a.flags = r.U8()
	a.cls = isa.Class(r.U8())
	a.slot = uint16(r.U64())
	a.dcyc = uint32(r.U64())
	a.pc = r.U64()
	a.in.Op = isa.Opcode(r.U8())
	a.in.Rd = r.U8()
	a.in.Rs1 = r.U8()
	a.in.Rs2 = r.U8()
	a.in.Imm = r.I64()
	a.in.HasImm = r.Bool()
	a.in.Raw = uint32(r.U64())
	a.nextKey = r.String()
	nf := r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nf > memocache.MaxWarmEntries {
		return nil, fmt.Errorf("fastsim: warm cache action claims %d forks", nf)
	}
	for i := uint64(0); i < nf; i++ {
		val := r.U64()
		next, err := loadAction(r)
		if err != nil {
			return nil, err
		}
		a.forks = append(a.forks, fork{val: val, next: next})
	}
	next, err := loadAction(r)
	if err != nil {
		return nil, err
	}
	a.next = next
	return a, r.Err()
}
