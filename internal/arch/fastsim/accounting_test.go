package fastsim

import (
	"fmt"
	"testing"

	"facile/internal/arch/uarch"
	"facile/internal/faults"
	"facile/internal/memocache"
)

// sumEntryBytes is the occupancy the gauge should report: the bytes charged
// by every entry still installed in the cache.
func sumEntryBytes(c *acache) uint64 {
	var n uint64
	for _, e := range c.M {
		n += e.Bytes
	}
	return n
}

func TestInvalidationRefundsEntryBytes(t *testing.T) {
	c := memocache.NewCache[action](0, nil)
	var ents []*centry
	for i := 0; i < 6; i++ {
		e := &centry{Key: fmt.Sprintf("key%d", i)}
		c.Put(e)
		c.Charge(e, uint64(100*(i+1)))
		ents = append(ents, e)
	}
	if c.G.Bytes != sumEntryBytes(c) {
		t.Fatalf("occupancy %d != charged entry bytes %d", c.G.Bytes, sumEntryBytes(c))
	}
	// N invalidations must leave the occupancy equal to the bytes of the
	// surviving entries.
	for _, i := range []int{1, 3, 4} {
		c.Invalidate(ents[i])
	}
	if want := sumEntryBytes(c); c.G.Bytes != want {
		t.Fatalf("after invalidations: occupancy %d, surviving entries hold %d", c.G.Bytes, want)
	}
	if len(c.M) != 3 {
		t.Fatalf("expected 3 surviving entries, have %d", len(c.M))
	}
	// Invalidating a dead entry again must not refund twice.
	before := c.G.Bytes
	c.Invalidate(ents[1])
	if c.G.Bytes != before {
		t.Fatalf("double invalidation changed occupancy: %d -> %d", before, c.G.Bytes)
	}
	if c.G.Invalidations != 4 {
		t.Fatalf("invalidations = %d, want 4", c.G.Invalidations)
	}
	// A stale invalidation after a clear must not underflow the fresh gauge.
	c.Clear()
	c.Invalidate(ents[0])
	if c.G.Bytes != 0 {
		t.Fatalf("post-clear stale invalidation left occupancy %d", c.G.Bytes)
	}
}

func TestFaultRunKeepsAccountingConsistent(t *testing.T) {
	// End to end: a run that invalidates entries via injected faults must
	// leave the gauge equal to the surviving entries' charged bytes.
	for _, w := range faultWorkloads {
		t.Run(w.name, func(t *testing.T) {
			p := asmOrDie(t, w.src)
			ij := faults.NewInjector(7, 5,
				faults.InjBreakChain, faults.InjFlipFork, faults.InjTruncate)
			s := New(uarch.Default(), p, Options{Memoize: true, Inject: ij})
			s.Run(0)
			st := s.Stats()
			if st.Invalidations == 0 {
				t.Fatalf("injector produced no invalidations: %+v", st)
			}
			if want := sumEntryBytes(s.ac); st.CacheBytes != want {
				t.Errorf("occupancy %d != surviving entries' bytes %d (stats %+v)",
					st.CacheBytes, want, st)
			}
		})
	}
}
